"""Wedge coefficients on discretized function spaces: `_wedge_blocks`, the one
kernel forming each 2x2 minor of a matrix once, block of column pairs by block,
for route A, the family, the Lambda gap, the witness and the Lagrange check."""

from __future__ import annotations

import ctypes
from math import isqrt

import numpy as np

from .errors import InputError

# Bytes of the kernel's three chunk buffers together (768 KiB) unless one
# offset needs more, so a float64 walk holds twice the elements of a
# complex128 one; one cache line of it aligns the buffers. Timed as two
# kernel passes, on G and on G^T, one BLAS thread, complex / real: 1.32 /
# 0.78 ms on 32^2, 33 / 18.5 ms on 324 x 18, 1.17 / 0.91 ms on 10 x 100.
# Half the budget was slower on 324 x 18 (41 / 23 ms); twice it slowed
# 10 x 100 (1.54 / 1.20 ms).
_CHUNK_BUDGET = 786_432
_LONG_RUN = 1024  # minors an offset's row pairs need to go as slices
_LINE = 64  # bytes of a cache line; each chunk buffer starts on one


def _row(n: int, p: int) -> int:
    """The row i of pair number p < n (n - 1) / 2: the largest i whose first
    number i (2n - 1 - i) / 2 is at most p. The smaller root of that quadratic
    in exact integers is off by at most one above."""
    i = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * p)) // 2
    return i - (i * (2 * n - 1 - i) // 2 > p)


def _pairs(n: int, start: int, stop: int):
    """Index arrays (i, j), i < j < n, of the pairs numbered start..stop-1 row
    by row, without the other pairs: row i starts at number i (2n - 1 - i) / 2
    and holds n - 1 - i pairs, j = i + 1 .. n - 1."""
    i0, i1 = _row(n, start), _row(n, stop - 1)
    rows = np.arange(i0, i1 + 1)
    # The first row starts at start, the last ends before stop.
    counts = n - 1 - rows
    counts[0] -= start - i0 * (2 * n - 1 - i0) // 2
    counts[-1] -= (i1 + 1) * (2 * n - 2 - i1) // 2 - stop
    # j = p + 1 + i - (first number of row i) = p + 1 - i (2n - 3 - i) / 2.
    shift = rows * (2 * n - 3 - rows) // 2
    return rows.repeat(counts), np.arange(start + 1, stop + 1) - shift.repeat(counts)


def _minors(buf, X, Y, a, b, n):
    """X[a] Y[b] - Y[a] X[b] for n row pairs in buf[0]; a, b: slices or gathered indices
    (take mode "clip", as "raise" buffers the output)."""
    d, p, g = buf[:, :n * X.shape[1]].reshape(3, n, X.shape[1])
    if isinstance(a, slice):
        np.multiply(X[a], Y[b], out=d)
        np.multiply(Y[a], X[b], out=p)
    else:
        np.multiply(X.take(a, 0, d, "clip"), Y.take(b, 0, g, "clip"), out=d)
        np.multiply(Y.take(a, 0, p, "clip"), X.take(b, 0, g, "clip"), out=p)
    d -= p
    return d


def _aligned_rows(n: int, dtype) -> np.ndarray:
    """Three rows of at least n elements, each starting on a cache line.

    The multiplies run about 1.5 times as fast on real input (1.15 on
    complex) when their operands start on a cache line (timings in ROADMAP
    item 3), and the allocator guarantees only 16 bytes. One spare line of
    elements lets the rows start on the first line boundary of the block.
    """
    itemsize = np.dtype(dtype).itemsize
    stride = -(-n * itemsize // _LINE) * _LINE  # bytes per row, whole lines
    raw = np.empty(3 * stride // itemsize + _LINE // itemsize, dtype=dtype)
    # The address of raw; raw.ctypes.data costs about twice as much per call,
    # which shows on the many small walks of a library pass.
    address = ctypes.addressof(ctypes.c_char.from_buffer(raw))
    return np.ndarray((3, stride // itemsize), dtype, raw, -address % _LINE)


def _wedge_blocks(M: np.ndarray):
    """Yield (x, y, chunks) per block of column pairs x < y of M, numbered as in
    _pairs; chunks yields (a, b, D), D[p, k] = M[a_p, x_k] M[b_p, y_k] - M[a_p, y_k] M[b_p, x_k],
    for every row pair a < b before the next block starts: each 2x2 minor once.
    Row pairs (a, a + s) of one offset s are the slices X[:-s], Y[s:] of
    X = M[:, x], Y = M[:, y] while many; the far offsets go as gathered index
    arrays. D is a buffer the next chunk overwrites; reduce it before the next."""
    M = np.asarray(M, dtype=np.result_type(M, float))  # float64 or complex128
    rows, cols = M.shape
    ncp = cols * (cols - 1) // 2
    if rows < 2 or ncp == 0:
        return
    # Elements per buffer: whole lines of the budget less the aligning line.
    size = max((_CHUNK_BUDGET - _LINE) // (3 * _LINE) * (_LINE // M.itemsize), rows - 1)
    # Equal blocks, each small enough that the offset-1 slice fills one buffer.
    blocks = -(-ncp // (size // (rows - 1)))
    width = -(-ncp // blocks)
    buf = _aligned_rows(min(size, rows * (rows - 1) // 2 * width), M.dtype)
    idx = np.arange(rows)

    def chunks(x, y):
        X, Y = np.take(M, x, axis=1), np.take(M, y, axis=1)
        # Offsets below near have at least _LONG_RUN / x.size row pairs.
        near = max(1, rows + 1 - -(-_LONG_RUN // x.size))
        for s in range(1, near):
            yield idx[:-s], idx[s:], _minors(buf, X, Y, slice(-s), slice(s, None), rows - s)
        # The offsets s >= near: pairs a < b' of rows - near + 1, b = b' + near - 1.
        far = (rows - near + 1) * (rows - near) // 2
        for q0 in range(0, far, size // x.size):
            a, b = _pairs(rows - near + 1, q0, min(q0 + size // x.size, far))
            b += near - 1
            yield a, b, _minors(buf, X, Y, a, b, a.size)

    for c0 in range(0, ncp, width):
        x, y = _pairs(cols, c0, min(c0 + width, ncp))
        yield x, y, chunks(x, y)


def lagrange_identity_gap(f, g, weights) -> float:
    """LHS minus RHS of the weighted Lagrange identity (zero in exact arithmetic).

    LHS = ||f||^2 ||g||^2 - |<f, g>|^2, RHS = sum_{j>i} |f_i g_j - f_j g_i|^2 w_i w_j.
    """
    dtype = np.result_type(np.asarray(f), np.asarray(g), float)  # real vectors stay real
    f = np.asarray(f, dtype=dtype).reshape(-1)
    g = np.asarray(g, dtype=dtype).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not (f.size == g.size == w.size):
        raise InputError("vectors and weights must have equal length")
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise InputError("vectors must be finite")
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise InputError("weights must be strictly positive and finite")
    nf = float(np.sum(np.abs(f) ** 2 * w))
    ng = float(np.sum(np.abs(g) ** 2 * w))
    ip = complex(np.sum(f * np.conj(g) * w))
    lhs = nf * ng - abs(ip) ** 2
    # The one row pair of [f; g] sqrt(w) has the minors (f_i g_j - f_j g_i) sqrt(w_i w_j).
    rows = np.stack([f, g]) * np.sqrt(w)
    rhs = float(sum(np.vdot(d, d).real
                    for _, _, chunks in _wedge_blocks(rows) for _, _, d in chunks))
    return lhs - rhs

"""Wedge coefficients on discretized function spaces: `_wedge_blocks`, the one
kernel forming each 2x2 minor of a matrix once, block of column pairs by block,
for route A, the family, the Lambda gap, the witness and the Lagrange check."""

from __future__ import annotations

import ctypes
import threading
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
    and holds n - 1 - i pairs, j = i + 1 .. n - 1. Beyond arrays of one entry
    per row, only the two results are allocated."""
    i0, i1 = _row(n, start), _row(n, stop - 1)
    rows = np.arange(i0, i1 + 1)
    # The first row starts at start, the last ends before stop.
    counts = n - 1 - rows
    counts[0] -= start - i0 * (2 * n - 1 - i0) // 2
    counts[-1] -= (i1 + 1) * (2 * n - 2 - i1) // 2 - stop
    # j steps by 1 within a row, from j = p + 1 - i (2n - 3 - i) / 2 at p = start,
    # and from n - 1 to i + 1 where row i starts: a running sum in place.
    j = np.ones(stop - start, dtype=np.intp)
    j[0] = start + 1 - i0 * (2 * n - 3 - i0) // 2
    j[np.cumsum(counts[:-1])] = rows[1:] + 2 - n
    return rows.repeat(counts), np.cumsum(j, out=j)


def _minors(buf, X, Y, a, b, n):
    """X[a] Y[b] - Y[a] X[b] for n row pairs in buf[0]; a, b: slices, or _readonly
    views of gathered indices (take mode "clip", as "raise" buffers the output)."""
    d, p, g = buf[:, :n * X.shape[1]].reshape(3, n, X.shape[1])
    if isinstance(a, slice):
        np.multiply(X[a], Y[b], out=d)
        np.multiply(Y[a], X[b], out=p)
    else:
        a, b = a.base, b.base
        np.multiply(X.take(a, 0, d, "clip"), Y.take(b, 0, g, "clip"), out=d)
        np.multiply(Y.take(a, 0, p, "clip"), X.take(b, 0, g, "clip"), out=p)
    d -= p
    return d


def _aligned_rows(n: int, dtype) -> np.ndarray:
    """Three rows of at least n elements, each starting on a cache line.

    The multiplies run about 1.5 times as fast on real input (1.15 on
    complex) when their operands start on a cache line: route A on real
    18 x 324 took 6.8 ms from a line boundary and 10.2-10.8 ms from 16, 32 or
    48 bytes past one, complex 14.8 against 14.9-17.0 ms (one BLAS thread).
    The allocator guarantees only 16 bytes. One spare line of elements lets
    the rows start on the first line boundary of the block.
    """
    itemsize = np.dtype(dtype).itemsize
    stride = -(-n * itemsize // _LINE) * _LINE  # bytes per row, whole lines
    raw = np.empty(3 * stride // itemsize + _LINE // itemsize, dtype=dtype)
    # The address of raw; raw.ctypes.data costs about twice as much per call,
    # which shows on the many small walks of a library pass.
    address = ctypes.addressof(ctypes.c_char.from_buffer(raw))
    return np.ndarray((3, stride // itemsize), dtype, raw, -address % _LINE)


def _layout(rows: int, cols: int, itemsize: int):
    """(size, width) of the kernel's walk over a rows x cols matrix: elements
    per chunk buffer, and column pairs per block, in equal blocks each small
    enough that the offset-1 slice fills one buffer."""
    ncp = cols * (cols - 1) // 2
    # Elements per buffer: whole lines of the budget less the aligning line.
    size = max((_CHUNK_BUDGET - _LINE) // (3 * _LINE) * (_LINE // itemsize), rows - 1)
    blocks = -(-ncp // (size // (rows - 1)))
    return size, -(-ncp // blocks)


def _offsets(rows: int, n: int):
    """(near, far) of a block of n column pairs: the row offsets below near
    have at least _LONG_RUN / n row pairs each and go as slices; the far row
    pairs, of the offsets from near on, are gathered."""
    near = max(1, rows + 1 - -(-_LONG_RUN // n))
    return near, (rows - near + 1) * (rows - near) // 2


def _readonly(*arrays):
    """Read-only views of index arrays, as the walk hands them out; it gathers
    with their writable bases, since np.take first copies a read-only index."""
    views = tuple(a.view() for a in arrays)
    for v in views:
        v.flags.writeable = False
    return views


def _far_chunks(rows: int, near: int, n: int, size: int):
    """Yield (a, b) of the far row pairs of a block of n column pairs, the
    offsets s >= near, a chunk of at most size // n pairs at a time: pairs
    a < b' of rows - near + 1, b = b' + near - 1."""
    far, step = _offsets(rows, n)[1], size // n
    for q0 in range(0, far, step):
        a, b = _pairs(rows - near + 1, q0, min(q0 + step, far))
        b += near - 1
        yield _readonly(a, b)
        del a, b  # free them before the next chunk's are formed


def _build_plan(rows: int, cols: int, itemsize: int):
    """(plan, nbytes) of the walk over a rows x cols matrix, from _CHUNK_BUDGET
    and _LONG_RUN as they are now. The plan is its shape-only part: (size,
    width) of _layout, the row numbers, the (x, y) of each block, and per
    block width (near, the (a, b) of each far chunk, or None to form them
    chunk by chunk). It holds every index array, nbytes of them, when they
    fit in the budget. Otherwise nbytes is None, and the plan forms each
    block's column pairs as the walk reaches it, and a width's far row pairs
    once, or per chunk when they alone exceed the budget: a walk then holds
    O(budget + rows + cols) of indices."""
    ncp = cols * (cols - 1) // 2
    size, width = _layout(rows, cols, itemsize)
    offsets = {n: _offsets(rows, n) for n in {width, ncp % width} - {0}}
    index = np.dtype(np.intp).itemsize
    nbytes = index * (rows + 2 * ncp + 2 * sum(far for _, far in offsets.values()))
    kept = nbytes <= _CHUNK_BUDGET
    blocks = (_readonly(*_pairs(cols, c0, min(c0 + width, ncp))) for c0 in range(0, ncp, width))
    far = {n: (near, tuple(_far_chunks(rows, near, n, size))
                     if kept or 2 * index * count <= _CHUNK_BUDGET else None)
           for n, (near, count) in offsets.items()}
    idx, = _readonly(np.arange(rows))
    if not kept:
        return (size, width, idx, blocks, far), None
    return (size, width, idx, tuple(blocks), far), nbytes


class _PlanCache:
    """Walk plans and their nbytes by (rows, cols, itemsize, _CHUNK_BUDGET,
    _LONG_RUN), least recently used first, holding at most _CHUNK_BUDGET
    bytes of indices in all; a plan that alone exceeds it serves one walk.
    A lock keeps the plans and their byte count consistent across threads."""

    def __init__(self):
        self.plans, self.nbytes, self.lock = {}, 0, threading.Lock()

    def get(self, rows: int, cols: int, itemsize: int):
        key = (rows, cols, itemsize, _CHUNK_BUDGET, _LONG_RUN)
        with self.lock:
            entry = self.plans.pop(key, None)
            if entry is None:
                entry = _build_plan(rows, cols, itemsize)
                if entry[1] is None:
                    return entry[0]
                self.nbytes += entry[1]
                while self.plans and self.nbytes > _CHUNK_BUDGET:
                    self.nbytes -= self.plans.pop(next(iter(self.plans)))[1]
            self.plans[key] = entry
            return entry[0]

    def clear(self):
        with self.lock:
            self.plans.clear()
            self.nbytes = 0


_PLANS = _PlanCache()


def _wedge_blocks(M: np.ndarray):
    """Yield (x, y, chunks) per block of column pairs x < y of M, numbered as in
    _pairs; chunks yields (a, b, D), D[p, k] = M[a_p, x_k] M[b_p, y_k] - M[a_p, y_k] M[b_p, x_k],
    for every row pair a < b before the next block starts: each 2x2 minor once.
    Row pairs (a, a + s) of one offset s are the slices X[:-s], Y[s:] of
    X = M[:, x], Y = M[:, y] while many; the far offsets go as gathered index
    arrays. Every index array is read-only, from the shape's cached plan when
    it has one. D is a buffer the next chunk overwrites; reduce it before the
    next."""
    M = np.asarray(M, dtype=np.result_type(M, float))  # float64 or complex128
    rows, cols = M.shape
    if rows < 2 or cols < 2:
        return
    size, width, idx, blocks, far = _PLANS.get(rows, cols, M.itemsize)
    buf = _aligned_rows(min(size, rows * (rows - 1) // 2 * width), M.dtype)

    def chunks(x, y):
        near, pairs = far[x.size]
        X, Y = np.take(M, x.base, axis=1), np.take(M, y.base, axis=1)
        for s in range(1, near):
            yield idx[:-s], idx[s:], _minors(buf, X, Y, slice(-s), slice(s, None), rows - s)
        for a, b in _far_chunks(rows, near, x.size, size) if pairs is None else pairs:
            yield a, b, _minors(buf, X, Y, a, b, a.size)
            del a, b  # as in _far_chunks

    for x, y in blocks:
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

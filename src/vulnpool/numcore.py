"""Dense-tensor numerics with reverse-mode gradient propagation.

Small numpy-backed autodiff engine: each op computes its forward value and,
when gradients are enabled, registers a closure that maps the output gradient
to per-parent gradients. `backward` walks the graph once in reverse
topological order. Every op computes and allocates in the dtype of its
inputs: a model whose parameters are float32 trains and predicts in float32,
and float64 inputs (the finite-difference checks, old checkpoints) stay
float64 throughout.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Keep freed heap memory in the process instead of returning it per batch.

    Each mini-batch graph is freed at backward and the next one is about as
    large. With glibc's dynamic thresholds, the free trims the heap top and
    the next forward faults the same pages back in; arrays that grew past the
    adaptive mmap threshold are unmapped and mapped again. Fixed thresholds
    keep both in place: arrays up to 32 MiB come from the heap, and the heap
    top is trimmed only past 512 MiB. Setting either one turns off the dynamic
    threshold, so both are set, and the trim threshold only once the mmap
    threshold is accepted: alone it would leave every array over 128 KiB
    mmapped and unmapped per batch. A long-lived process keeps its peak
    heap. Where the C library has no mallopt (not glibc), nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:  # mallopt returns 1 on success
        mallopt(_M_TRIM_THRESHOLD, 512 << 20)


_keep_freed_heap()

# Gradient recording is on unless suspended via no_grad(); reductions rely on
# numpy's fixed sequential evaluation order for bit-determinism.
_grad_enabled = True


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


@contextmanager
def no_grad():
    """Suspend graph construction (inference / finite-difference passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        # a floating array keeps its dtype; anything else (ints, lists) is float64
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn) -> Tensor:
    """Build an op output; records the graph only when it can matter."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# core ops

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} vs {b.shape}") from None

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} vs {b.shape}") from None

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        return (g * c,)

    return _make(a.data * c, (a,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer `x @ w + b` as one node: (n, k) @ (k, m) + (m,) -> (n, m).

    The bias is added in place to the product, so the layer keeps one
    (n, m) array, not the product and the sum. Each element equals
    `(x @ w)[i, j] + b[j]`, the value of the two-op form, bit for bit.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"linear: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    data = x.data @ w.data
    data += b.data

    def bw(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _make(data, (x, w, b), bw)


def matmul_rowwise(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product whose every output row is independent of the other rows of `a`.

    BLAS picks its kernel, and with it the summation order, by the shape of
    the product (a one-row product takes a matrix-vector path, and a
    two-column one rounds by the row count modulo its tile), so a row of
    `a @ b` can differ in its last bits from the same row multiplied alone.
    einsum sums each output element in one fixed order, so a row comes out
    the same in a product of any number of rows.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul_rowwise: incompatible shapes {a.shape} vs {b.shape}")

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _make(np.einsum("ij,jk->ik", a.data, b.data), (a, b), bw)


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        return (np.full_like(a.data, float(g)),)

    return _make(a.data.sum(), (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth tanh-form GELU; smoothness keeps finite-difference checks clean.

    Keeps only the tanh array for backward, which recomputes x^2 and (1 + t) / 2.
    """
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = t + 1.0
    data *= 0.5
    data *= x

    def bw(g):
        # d/dx = (1 + t) / 2 + x (1 - t^2) C (1 + 3 * 0.044715 x^2) / 2
        inner = x * x
        inner *= 0.134145
        inner += 1.0
        inner *= _GELU_C
        dx = t * t
        np.subtract(1.0, dx, out=dx)
        dx *= inner
        dx *= x
        np.add(t, 1.0, out=inner)
        dx += inner
        dx *= 0.5
        dx *= g
        return (dx,)

    return _make(data, (a,), bw)


_LN_EPS = 1e-5  # added to each row's variance


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Row-wise layer normalization with affine parameters gamma/beta.

    Keeps the normalized rows and each row's 1/std for backward. Every
    per-row reduction (the mean, the variance and the backward's row sums)
    is an einsum: it reduces each row on its own, with no squared temporary,
    and several times faster than `sum(axis=1)` on narrow rows.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got {a.shape}")
    d = a.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match width {d}"
        )
    # sum / d is what ndarray.mean computes, without its Python-level wrapper
    xhat = a.data - np.einsum("ij->i", a.data)[:, None] / d
    var = np.einsum("ij,ij->i", xhat, xhat) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)[:, None]
    xhat *= inv_std
    data = xhat * gamma.data
    data += beta.data

    def bw(g):
        dxhat = g * gamma.data
        # standard layer-norm backward: project out mean and xhat components
        dx = xhat * (np.einsum("ij,ij->i", dxhat, xhat)[:, None] / d)
        dx += np.einsum("ij->i", dxhat)[:, None] / d
        np.subtract(dxhat, dx, out=dx)
        dx *= inv_std
        return dx, np.einsum("ij,ij->j", g, xhat), g.sum(axis=0)

    return _make(data, (a, gamma, beta), bw)


def concat_rows(tensors) -> Tensor:
    """Stack tensors along the row axis; a 1-D tensor is one row."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_rows: empty input")
    parts = [t.data.reshape(1, -1) if t.data.ndim == 1 else t.data for t in tensors]
    width = parts[0].shape[1]
    for t, part in zip(tensors, parts):
        if part.ndim != 2 or part.shape[1] != width:
            raise ShapeError(f"concat_rows: incompatible shapes {tensors[0].shape} vs {t.shape}")
    data = np.concatenate(parts, axis=0)
    splits = np.cumsum([part.shape[0] for part in parts])[:-1]

    def bw(g):
        return tuple(
            gp.reshape(t.shape) for gp, t in zip(np.split(g, splits, axis=0), tensors)
        )

    return _make(data, tuple(tensors), bw)


def _segments(segments, rows: int, op: str) -> list[tuple[int, int]]:
    """Validate (start, stop) row ranges: non-empty, in order, not overlapping."""
    spans = [(int(lo), int(hi)) for lo, hi in segments]
    prev = 0
    for lo, hi in spans:
        if not prev <= lo < hi <= rows:
            raise ShapeError(f"{op}: bad segment ({lo}, {hi}) for {rows} rows after row {prev}")
        prev = hi
    return spans


def segment_mean(a: Tensor, segments) -> Tensor:
    """Mean over the rows of each (start, stop) range: (n, ...) -> (len(segments), ...).

    Each mean is bit-equal to `a[lo:hi].sum(axis=0) / (hi - lo)`, which
    adds rows of two or more elements one after another. All ranges are
    summed in one reduction: back-to-back ranges of one length as one
    reshaped block, others copied into a (ranges, longest, ...) block padded
    with -0.0, the one value whose addition changes no sum (`ufunc.reduceat`
    sums in another order). numpy sums a range of one-element rows pairwise,
    so for ranges of unequal length over such rows the padded block can
    differ from the slice in the last bit.
    """
    if a.data.ndim < 1:
        raise ShapeError(f"segment_mean: expected at least 1-D input, got {a.shape}")
    spans = _segments(segments, a.shape[0], "segment_mean")
    x = a.data
    count = len(spans)
    tail = x.shape[1:]
    start, stop = spans[0][0], spans[-1][1]
    width = (stop - start) // count
    if width * count == stop - start and all(hi - lo == width for lo, hi in spans):
        # back to back: one reshaped block. Tested on the spans, not on arrays
        # built from them, which cost a one-sample forward more than its sums
        block = (count, width) + tail
        data = x[start:stop].reshape(block).sum(axis=1) / width

        def bw(g):
            out = np.zeros_like(x)
            out[start:stop].reshape(block)[...] = (g / width)[:, None]
            return (out,)

        return _make(data, (a,), bw)

    lo, hi = np.array(spans, dtype=np.int64).T
    lens = hi - lo
    longest = int(lens.max())
    div = lens.astype(x.dtype).reshape((count,) + (1,) * len(tail))
    # each range's rows, then the row of -0.0 appended to x up to the longest
    picked = lo[:, None] + np.arange(longest)
    picked = np.where(picked < hi[:, None], picked, x.shape[0])
    source = np.concatenate([x, np.full((1,) + tail, -0.0, dtype=x.dtype)])
    data = source.take(picked, axis=0).sum(axis=1) / div
    tiled = lo[0] == 0 and hi[-1] == x.shape[0] and lens.sum() == x.shape[0]

    def bw_ragged(g):
        spread = (g / div).repeat(lens, axis=0)
        if tiled:
            return (spread,)
        out = np.zeros_like(x)
        out[picked[picked < x.shape[0]]] = spread
        return (out,)

    return _make(data, (a,), bw_ragged)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(rows, d) -> (H, rows, d / H), a view: each head is a column block."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


def attention(q: Tensor, k: Tensor, v: Tensor, segments, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within row segments.

    `q`, `k` and `v` are (n, d) with the heads side by side in the columns,
    and `segments` their (start, stop) row ranges: the rows of a segment
    attend only to each other. The output is (n, d), heads merged. Besides
    its inputs it keeps the softmax probabilities, one (n_heads, rows, rows)
    array per segment, for backward. The backward uses rowsum(dP * P) =
    rowsum(dO * O) (FlashAttention, Dao et al. 2022): one (n_heads, n) array
    in place of a per-segment (n_heads, rows, rows) product. So backward also
    reads the output array, which no later op may change in place. Rows
    outside every segment get zero gradient.
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention: incompatible shapes {q.shape}, {k.shape}, {v.shape}")
    n, d = q.shape
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention: width {d} not divisible into {n_heads} heads")
    spans = _segments(segments, n, "attention")
    inv_sqrt = 1.0 / math.sqrt(d // n_heads)

    def heads(x):
        return _heads(x, n_heads)

    qh = heads(q.data * inv_sqrt)
    kh, vh = heads(k.data), heads(v.data)
    out = np.zeros((n, d), dtype=q.data.dtype)  # C order: heads() must be a view
    out_h = heads(out)
    probs = []
    for lo, hi in spans:
        p = qh[:, lo:hi] @ kh[:, lo:hi].transpose(0, 2, 1)
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p *= 1.0 / p.sum(axis=2, keepdims=True)
        np.matmul(p, vh[:, lo:hi], out=out_h[:, lo:hi])
        probs.append(p)

    def bw(g):
        gh = heads(np.ascontiguousarray(g))
        rowsum = np.einsum("hnd,hnd->hn", gh, out_h)[:, :, None]  # rowsum(dP * P)
        qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)  # q unscaled: see below
        dq, dk, dv = (np.zeros((n, d), dtype=out.dtype) for _ in range(3))
        dqh, dkh, dvh = heads(dq), heads(dk), heads(dv)
        for (lo, hi), p in zip(spans, probs):
            np.matmul(p.transpose(0, 2, 1), gh[:, lo:hi], out=dvh[:, lo:hi])
            ds = gh[:, lo:hi] @ vh[:, lo:hi].transpose(0, 2, 1)
            ds -= rowsum[:, lo:hi]
            ds *= p
            np.matmul(ds, kh[:, lo:hi], out=dqh[:, lo:hi])
            np.matmul(ds.transpose(0, 2, 1), qh[:, lo:hi], out=dkh[:, lo:hi])
        dq *= inv_sqrt  # the 1/sqrt(dh) of the scores, applied once
        dk *= inv_sqrt
        return dq, dk, dv

    return _make(out, (q, k, v), bw)


def folded_attention(q: Tensor, x: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor,
                     segments, n_heads: int) -> Tensor:
    """Multi-head attention of query rows over the rows `x` of their own
    segments, with keys `x wk + bk` and values `x wv + bv`, neither of which
    is ever formed.

    `x` is (n, d) and `segments` its (start, stop) row ranges; `q` is (m, d),
    m / len(segments) query rows per segment, segment after segment, with
    the heads side by side in the columns. The output is (m, d), heads
    merged: up to rounding, `attention` over K = x wk + bk and V = x wv + bv
    read at the query rows. Per head h, the key projection folds into the
    queries, q~_h = q_h wk_h^T / sqrt(dh) (as multi-head latent attention
    folds its key up-projection, DeepSeek-V2), so the scores are
    q~_h x_seg^T; the value projection folds into the output,
    (P_h x_seg) wv_h + bv_h, which is exact because each row of P_h sums to
    1. The projections cost two products over the m query rows instead of
    two over all n rows. `bk` adds the same q_h bk_h / sqrt(dh) to every
    score of a row, which the softmax removes: its gradient is all zeros,
    returned explicitly so that `bk` stays a trained parameter like any
    other.

    Every segment's scores q~_seg x_seg^T go into one flat buffer, a row per
    (query, head) of a segment and a column per segment row, segment after
    segment (rows outside every segment have no column), so that each
    segment's softmax reduces along contiguous memory. The per-segment loops
    run only the matrix products; each softmax step runs once over the whole
    buffer, the per-segment maxima and sums taken by `ufunc.reduceat`. It
    adds in an order of its own, not column order, but one fixed by the
    segment's length, so a segment's rows come out bit-equal alone and
    packed. Keeps q~, P_h x_seg and the flat probability buffer for backward,
    whose loops also run only products: dP per segment, then
    dS = P * (dP - rowsum) once over the buffer, then dq~ and dx per segment,
    dx from P and dS side by side in one product.
    """
    d = x.shape[1] if x.data.ndim == 2 else 0
    if q.data.ndim != 2 or not d or (q.shape[1], wk.shape, bk.shape, wv.shape, bv.shape) != (
            d, (d, d), (d,), (d, d), (d,)):
        raise ShapeError(f"folded_attention: incompatible shapes q {q.shape}, x {x.shape}, "
                         f"wk {wk.shape}, bk {bk.shape}, wv {wv.shape}, bv {bv.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"folded_attention: width {d} not divisible into {n_heads} heads")
    spans = _segments(segments, x.shape[0], "folded_attention")
    m, count = q.shape[0], len(spans)
    if m % count:
        raise ShapeError(f"folded_attention: {m} query rows for {count} segments")
    inv_sqrt = 1.0 / math.sqrt(d // n_heads)

    def heads(a):
        return _heads(a, n_heads)

    def blocks(a):  # (m, H, d) -> (segments, queries * H, d), a view: one block a segment
        return a.reshape(count, -1, d)

    width = m // count * n_heads  # a segment's (query, head) pairs: the buffer's rows
    if count == 1:  # the buffer's columns are the segment's rows: nothing to offset
        (lo, hi), = spans
        lens, firsts, cols = [hi - lo], [0], [(x.data[lo:hi], slice(None))]
    else:
        lens = [hi - lo for lo, hi in spans]
        firsts = list(itertools.accumulate(lens[:-1], initial=0))  # each segment's first column
        # (a segment's rows of x, its columns of the buffer), one pair a segment
        cols = [(x.data[lo:hi], slice(f, f + n)) for (lo, hi), f, n in zip(spans, firsts, lens)]

    def spread(a):  # (width, segments) -> (width, buffer columns)
        return a if count == 1 else a.repeat(lens, axis=1)

    wkt, wvh = wk.data.T.reshape(n_heads, -1, d), heads(wv.data)  # (H, dh, d), (H, d, dh)
    qt = np.empty((m, n_heads, d), dtype=q.data.dtype)
    np.matmul(heads(q.data * inv_sqrt), wkt, out=qt.transpose(1, 0, 2))
    p = np.empty((width, sum(lens)), dtype=qt.dtype)
    for (xs, f), qs in zip(cols, blocks(qt)):
        np.matmul(qs, xs.T, out=p[:, f])
    p -= spread(np.maximum.reduceat(p, firsts, axis=1))
    np.exp(p, out=p)
    p /= spread(np.add.reduceat(p, firsts, axis=1))
    u = np.empty_like(qt)
    for (xs, f), us in zip(cols, blocks(u)):
        np.matmul(p[:, f], xs, out=us)
    out = np.empty((m, d), dtype=qt.dtype)
    np.matmul(u.transpose(1, 0, 2), wvh, out=heads(out))
    out += bv.data

    def bw(g):
        gh = heads(np.ascontiguousarray(g))
        dwv = np.empty_like(wv.data)
        np.matmul(u.transpose(1, 2, 0), gh, out=heads(dwv))
        du = np.empty_like(u)
        np.matmul(gh, wvh.transpose(0, 2, 1), out=du.transpose(1, 0, 2))
        rowsum = np.einsum("mhd,mhd->mh", du, u).reshape(count, width).T  # rowsum(dP * P)
        pds = np.empty((2 * width, p.shape[1]), dtype=p.dtype)  # P above dS
        pds[:width] = p
        ds = pds[width:]
        for (xs, f), dus in zip(cols, blocks(du)):
            np.matmul(dus, xs.T, out=ds[:, f])
        ds -= spread(rowsum)
        ds *= p
        # dx_seg = P_seg^T dU_seg + dS_seg^T q~_seg, one product over [dU; q~]_seg
        duq = np.concatenate([blocks(du), blocks(qt)], axis=1)
        dqt = np.empty_like(qt)
        dx = np.zeros_like(x.data)
        for (lo, hi), (xs, f), dqs, duqs in zip(spans, cols, blocks(dqt), duq):
            np.matmul(ds[:, f], xs, out=dqs)
            np.matmul(pds[:, f].T, duqs, out=dx[lo:hi])
        dqh = dqt.transpose(1, 0, 2)
        dq = np.empty_like(q.data)
        np.matmul(dqh, wkt.transpose(0, 2, 1), out=heads(dq))
        dq *= inv_sqrt  # the 1/sqrt(dh) of the queries, applied once
        dwk = np.empty_like(wk.data)
        np.matmul(dqh.transpose(0, 2, 1), heads(q.data), out=heads(dwk))
        dwk *= inv_sqrt
        return dq, dx, dwk, np.zeros_like(bk.data), dwv, g.sum(axis=0)

    return _make(out, (q, x, wk, bk, wv, bv), bw)


def gather_rows(table: Tensor, ids, unique: bool = False) -> Tensor:
    """Embedding lookup: rows of `table` at integer `ids`.

    Backward scatter-adds each row's gradient into the table. `unique` is
    the caller's promise that no id repeats (rows picked by construction):
    backward then assigns the rows, the same values without the sums.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D table, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather_rows: id out of range [0, {table.shape[0]}) in {idx.tolist()}"
        )

    def bw(g):
        if unique:
            out = np.zeros_like(table.data)
            out[idx] = g
            return (out,)
        # scatter-add as one flat bincount: the same sums, in the same order,
        # as np.add.at, several times faster
        width = table.shape[1]
        flat = (idx[..., None] * width + np.arange(width)).ravel()
        summed = np.bincount(flat, weights=g.ravel(), minlength=table.data.size)
        return (summed.astype(table.data.dtype, copy=False).reshape(table.shape),)

    return _make(table.data.take(idx, axis=0), (table,), bw)


def prepend_rows(x: Tensor, segments, blocks, picks) -> Tensor:
    """Each sequence of `x` with picked (r, d) `blocks` placed in front of it.

    `segments` are the (start, stop) rows of the sequences, which must tile
    `x` (n, d); `picks` is a (B, K) integer array, one row per sequence.
    Sequence b comes out as blocks[picks[b, 0]], ..., blocks[picks[b, K-1]]
    and then its own rows, at rows b*K*r + start to (b+1)*K*r + stop of the
    (B*K*r + n, d) output. Only the picked blocks are inputs of the result,
    so a block no sequence picks gets no gradient at all, not a zero one.
    Backward hands `x` its rows of the gradient and sums the rows placed
    from each block into it, in float64 and in sequence order, as the
    scatter-add of `gather_rows` does; the sums span the blocks, not `x`.
    """
    spans = _segments(segments, x.shape[0], "prepend_rows")
    if spans[0][0] != 0 or spans[-1][1] != x.shape[0] or any(
            a[1] != b[0] for a, b in zip(spans, spans[1:])):
        raise ShapeError(f"prepend_rows: segments {spans} do not tile {x.shape[0]} rows")
    picks = np.asarray(picks, dtype=np.int64)
    if picks.ndim != 2 or picks.shape[0] != len(spans) or not picks.size:
        raise ShapeError(f"prepend_rows: picks of shape {picks.shape} for {len(spans)} segments")
    flat = picks.ravel().tolist()
    used = sorted(set(flat))
    if used[0] < 0 or used[-1] >= len(blocks):
        raise IndexError(f"prepend_rows: pick out of range [0, {len(blocks)}) in {picks.tolist()}")
    r, d = blocks[0].shape
    if x.data.ndim != 2 or x.shape[1] != d or any(b.shape != (r, d) for b in blocks):
        raise ShapeError(f"prepend_rows: blocks of shape {[b.shape for b in blocks]} for "
                         f"rows {x.shape}")
    # the rows of [blocks..., x] the output copies (index arithmetic on short
    # Python lists: on one sequence, numpy's per-call cost would dominate)
    n, count, per = x.shape[0], len(spans), picks.shape[1] * r
    lens = [hi - lo for lo, hi in spans]
    first = len(blocks) * r  # the row of x[0]
    rows = np.arange(count * per + n)  # x's rows, shifted by the block rows before them
    rows += np.array([first - per * b for b in range(1, count + 1)]).repeat(
        [per + m for m in lens])
    block_out = (np.array([b * per + lo for b, (lo, _) in enumerate(spans)])[:, None]
                 + np.arange(per)).ravel()
    block_in = (np.array([i * r for i in flat])[:, None] + np.arange(r)).ravel()
    rows[block_out] = block_in
    out = np.concatenate([b.data for b in blocks] + [x.data]).take(rows, axis=0)

    def bw(g):
        token_out = np.arange(n)
        token_out += np.array([per * b for b in range(1, count + 1)]).repeat(lens)
        cells = (block_in[:, None] * d + np.arange(d)).ravel()
        summed = np.bincount(cells, weights=g.take(block_out, axis=0).ravel(),
                             minlength=len(blocks) * r * d)
        summed = summed.astype(out.dtype, copy=False).reshape(len(blocks), r, d)
        return (g.take(token_out, axis=0), *summed[used])

    return _make(out, (x, *(blocks[i] for i in used)), bw)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype)
    keep /= 1.0 - rate

    def bw(g):
        return (g * keep,)

    return _make(a.data * keep, (a,), bw)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Cross-entropy of each row of logits against its integer class label.

    (B, C) logits and B labels give (B,); a (C,) vector and one label give a
    scalar. Numerically stable: log-sum-exp with max subtraction.
    """
    x = logits.data
    if x.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy_logits: expected 1-D or 2-D logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != x.shape[:-1]:
        raise ShapeError(
            f"cross_entropy_logits: labels shape {labels.shape} vs logits {logits.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= x.shape[-1]):
        raise IndexError(
            f"cross_entropy_logits: label {labels.tolist()} out of range for {logits.shape}"
        )
    onehot = np.arange(x.shape[-1]) == labels[..., None]
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    data = lse - z[onehot].reshape(lse.shape)

    def bw(g):
        return (g[..., None] * (np.exp(z - lse[..., None]) - onehot),)

    return _make(data, (logits,), bw)


_COSINE_TINY = 1e-12


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between matching nonzero rows, in [-1, 1].

    Two (B, d) tensors give (B,); two (d,) vectors give a scalar.
    """
    if a.data.ndim not in (1, 2) or a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: incompatible shapes {a.shape} vs {b.shape}")
    na = np.sqrt((a.data * a.data).sum(axis=-1))
    nb = np.sqrt((b.data * b.data).sum(axis=-1))
    if (na < _COSINE_TINY).any() or (nb < _COSINE_TINY).any():
        raise ValueError("cosine_similarity: zero vector")
    nab = na * nb
    cos = (a.data * b.data).sum(axis=-1) / nab

    def bw(g):
        g, c, ab = g[..., None], cos[..., None], nab[..., None]
        da = g * (b.data / ab - c * a.data / (na * na)[..., None])
        db = g * (a.data / ab - c * b.data / (nb * nb)[..., None])
        return da, db

    return _make(cos, (a, b), bw)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss: Tensor):
    """Propagate gradients from a scalar loss to every reachable leaf.

    Leaf gradients accumulate additively across calls until zeroed.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# finite-difference verification

@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_coordinate: tuple
    passed: bool
    tolerance: float


def grad_check(f, x: Tensor, eps: float = 1e-5, tol: float = 1e-6,
               retry_eps=()) -> GradCheckReport:
    """Compare the analytic gradient of f at x against central differences.

    `f` must be a deterministic Tensor -> scalar function that reads x.data
    on every call. Relative error per coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8).

    A single probe step cannot suit every coordinate: tiny gradients drown
    in float roundoff at small steps and in truncation at large ones.
    Coordinates failing at `eps` are re-probed at each step in `retry_eps`
    and keep their best agreement; a genuinely wrong gradient fails at all
    of them. `x` must be float64: the default steps are below what float32
    resolves.
    """
    if x.data.dtype != np.float64:
        raise ValueError(f"grad_check: x must be float64, got {x.data.dtype}")
    x.grad = None
    loss = f(x)
    backward(loss)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    flat = x.data.reshape(-1)
    a_flat = analytic.reshape(-1)

    def central_diff(i, step):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(f(x).data)
        flat[i] = orig - step
        f_minus = float(f(x).data)
        flat[i] = orig
        return (f_plus - f_minus) / (2.0 * step)

    def rel_error(i, step):
        n = central_diff(i, step)
        return abs(a_flat[i] - n) / max(abs(a_flat[i]), abs(n), 1e-8)

    rel = np.zeros_like(a_flat)
    with no_grad():
        for i in range(flat.size):
            rel[i] = rel_error(i, eps)
            for step in retry_eps:
                if rel[i] < tol:
                    break
                rel[i] = min(rel[i], rel_error(i, step))

    worst = np.unravel_index(int(np.argmax(rel)), x.data.shape) if rel.size else (0,)
    max_err = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(
        max_relative_error=max_err,
        worst_coordinate=tuple(int(i) for i in worst),
        passed=max_err < tol,
        tolerance=tol,
    )

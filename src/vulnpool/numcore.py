"""Dense-tensor numerics with reverse-mode gradient propagation.

Small numpy-backed autodiff engine: each op computes its forward value and,
when gradients are enabled, registers a closure that maps the output gradient
to per-parent gradients. `backward` walks the graph once in reverse
topological order. Double precision throughout so finite-difference checks
have headroom.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

DTYPE = np.float64

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
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the named functions below do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} vs {b.shape}") from None

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        return (g * c,)

    return _make(a.data * c, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _make(data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    def bw(g):
        return (g.T,)

    return _make(a.data.T, (a,), bw)


def add_n(tensors) -> Tensor:
    """Elementwise sum of same-shape tensors (batch-loss aggregation)."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("add_n: empty input")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"add_n: incompatible shapes {shape} vs {t.shape}")
    data = tensors[0].data.copy()
    for t in tensors[1:]:
        data += t.data

    def bw(g):
        return tuple(g for _ in tensors)

    return _make(data, tuple(tensors), bw)


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        return (np.full_like(a.data, float(g)),)

    return _make(a.data.sum(), (a,), bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: incompatible shapes {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def bw(g):
        return g * b.data, g * a.data

    return _make(data, (a, b), bw)


def vec_matmul(v: Tensor, w: Tensor) -> Tensor:
    """(d,) @ (d, m) -> (m,)."""
    if v.data.ndim != 1 or w.data.ndim != 2 or v.shape[0] != w.shape[0]:
        raise ShapeError(f"vec_matmul: incompatible shapes {v.shape} vs {w.shape}")
    data = v.data @ w.data

    def bw(g):
        return g @ w.data.T, np.outer(v.data, g)

    return _make(data, (v, w), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth tanh-form GELU; smoothness keeps finite-difference checks clean."""
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    data = 0.5 * x * (1.0 + t)

    def bw(g):
        d_inner = _GELU_C * (1.0 + 0.134145 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return _make(data, (a,), bw)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor. -inf entries get exactly zero weight."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows: expected 2-D input, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner),)

    return _make(s, (a,), bw)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with affine parameters gamma/beta."""
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got {a.shape}")
    d = a.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match width {d}"
        )
    mean = a.data.mean(axis=1, keepdims=True)
    xc = a.data - mean
    var = (xc**2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    data = xhat * gamma.data + beta.data

    def bw(g):
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        dxhat = g * gamma.data
        # standard layer-norm backward: project out mean and xhat components
        dx = (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        ) * inv_std
        return dx, dgamma, dbeta

    return _make(data, (a, gamma, beta), bw)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over rows: (n, d) -> (d,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows: expected 2-D input, got {a.shape}")
    n = a.shape[0]

    def bw(g):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return _make(a.data.mean(axis=0), (a,), bw)


def select_row(a: Tensor, i: int) -> Tensor:
    """Extract row i of a 2-D tensor as a vector."""
    if a.data.ndim != 2:
        raise ShapeError(f"select_row: expected 2-D input, got {a.shape}")
    if not 0 <= i < a.shape[0]:
        raise IndexError(f"select_row: row {i} out of range for shape {a.shape}")

    def bw(g):
        out = np.zeros_like(a.data)
        out[i] = g
        return (out,)

    return _make(a.data[i], (a,), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def bw(g):
        out = np.zeros_like(a.data)
        out[start:stop] = g
        return (out,)

    return _make(a.data[start:stop].copy(), (a,), bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    def bw(g):
        out = np.zeros_like(a.data)
        out[:, start:stop] = g
        return (out,)

    return _make(a.data[:, start:stop].copy(), (a,), bw)


def concat_rows(tensors) -> Tensor:
    """Stack 2-D tensors along the row axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_rows: empty input")
    width = tensors[0].shape[1]
    for t in tensors[1:]:
        if t.data.ndim != 2 or t.shape[1] != width:
            raise ShapeError(f"concat_rows: incompatible shapes {tensors[0].shape} vs {t.shape}")
    data = np.concatenate([t.data for t in tensors], axis=0)
    splits = np.cumsum([t.shape[0] for t in tensors])[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=0))

    return _make(data, tuple(tensors), bw)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_cols: empty input")
    data = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=1))

    return _make(data, tuple(tensors), bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows of `table` at integer `ids` (scatter-add on backward)."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D table, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather_rows: id out of range [0, {table.shape[0]}) in {idx.tolist()}"
        )

    def bw(g):
        out = np.zeros_like(table.data)
        np.add.at(out, idx, g)
        return (out,)

    return _make(table.data[idx], (table,), bw)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def bw(g):
        return (g * keep,)

    return _make(a.data * keep, (a,), bw)


def cross_entropy_logits(logits: Tensor, label: int) -> Tensor:
    """Cross-entropy of a single logit vector against an integer class label.

    Numerically stable: log-sum-exp with max subtraction.
    """
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy_logits: expected 1-D logits, got {logits.shape}")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise IndexError(f"cross_entropy_logits: label {label} out of range for {logits.shape}")
    z = logits.data - logits.data.max()
    lse = np.log(np.exp(z).sum())
    data = lse - z[label]

    def bw(g):
        p = np.exp(z - lse)
        p[label] -= 1.0
        return (g * p,)

    return _make(data, (logits,), bw)


_COSINE_TINY = 1e-12


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between two nonzero vectors, in [-1, 1]."""
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: incompatible shapes {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.data)
    nb = np.linalg.norm(b.data)
    if na < _COSINE_TINY or nb < _COSINE_TINY:
        raise ValueError("cosine_similarity: zero vector")
    cos = float(a.data @ b.data) / (na * nb)

    def bw(g):
        da = g * (b.data / (na * nb) - cos * a.data / (na * na))
        db = g * (a.data / (na * nb) - cos * b.data / (nb * nb))
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
    of them.
    """
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

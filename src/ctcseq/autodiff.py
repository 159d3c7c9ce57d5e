"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built eagerly by the op functions below and walked once in
reverse topological order by ``backward``. Only the operations the
recognizer actually composes are provided, each with an explicit
vector-Jacobian rule; ``tests/autodiff_reference.py`` holds the
finite-difference oracle that verifies every one of them.

Gradients accumulate into ``Parameter.grad`` across backward calls until
explicitly zeroed, so per-batch accumulation falls out for free. A
parameter's gradient buffer exists only once a backward has reached it:
``None`` stands for a zero gradient.

On glibc, importing this module makes malloc keep freed memory: the
resident size stays at its high-water mark (``ru_maxrss`` does not rise).
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np

# Every training step frees a clip graph of about 15 MB. By default glibc hands large
# blocks and the free heap top back to the kernel, and the next forward faults them in.
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:  # glibc
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: keep up to 1 GiB of free heap top
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: mmap only blocks from 32 MiB, glibc's largest

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward-only evals)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array plus the bookkeeping for reverse-mode grads."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; every operator defers to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)


class Parameter(Tensor):
    """A leaf tensor updated by the optimizer; grad is None (zero) until a
    backward reaches it."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def zero_grad(self):
        self.grad = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _node(a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _node(a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _node(a.data * b.data, (a, b), vjp)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)

    def vjp(g):
        return (g * p * np.power(a.data, p - 1.0),)

    return _node(np.power(a.data, p), (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def vjp(g):
        return (g * out_data,)

    return _node(out_data, (a,), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (g / a.data,)

    return _node(np.log(a.data), (a,), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return _node(out_data, (a,), vjp)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor. At floor 0 this is the ReLU."""
    a = as_tensor(a)

    def vjp(g):
        return (g * (a.data > floor),)

    return _node(np.maximum(a.data, floor), (a,), vjp)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        g2 = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _node(a.data.reshape(shape), (a,), vjp)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _node(a.data.transpose(axes), (a,), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires 2-D or batched operands: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = _reduce_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None
        gb = _reduce_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None
        return ga, gb

    return _node(out_data, (a, b), vjp)


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1): {p}")
    return mul(x, (rng.random(x.shape) >= p) / (1.0 - p))


# ---------------------------------------------------------------------------
# reductions in the log domain


def logsumexp(a, axis: int = -1) -> Tensor:
    """Stable log-sum-exp along an axis, kept with length 1, differentiable
    (grad = softmax)."""
    a = as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = sub(a, Tensor(m))
    return add(log(sum_(exp(shifted), axis=axis, keepdims=True)), Tensor(m))


def softmax(logits, axis: int = -1) -> Tensor:
    """Softmax with max-subtraction; slices along ``axis`` sum to 1.

    Output is floored at the smallest normal float so entries stay
    strictly positive even when the exponential underflows.
    """
    return clamp_min(exp(log_softmax(logits, axis=axis)), np.finfo(np.float64).tiny)


def log_softmax(logits, axis: int = -1) -> Tensor:
    logits = as_tensor(logits)
    if not -logits.ndim <= axis < logits.ndim:
        raise ValueError(f"log_softmax axis {axis} invalid for shape {logits.shape}")
    return sub(logits, logsumexp(logits, axis=axis))


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """relu(2-D convolution), channel-major: x (Cin, N, H, W), weight (Cout, Cin, kh, kw) and
    bias (Cout,) give (Cout, N, OH, OW), the next layer's input layout; square stride/padding."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    cin, n, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv2d input {h}x{w} too small for kernel {kh}x{kw}")

    # transposed im2col, one strided copy per tap: row (c, i, j) is channel c at tap (i, j)
    xp = np.zeros((cin, n, hp, wp))
    xp[:, :, padding : padding + h, padding : padding + w] = x.data
    cols = np.empty((cin, kh * kw, n, oh, ow))
    for k, (i, j) in enumerate(np.ndindex(kh, kw)):
        cols[:, k] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    cols = cols.reshape(cin * kh * kw, n * oh * ow)
    wmat = weight.data.reshape(cout, -1)
    out_data = (wmat @ cols).reshape(cout, n, oh, ow)
    out_data += bias.data[:, None, None, None]
    np.maximum(out_data, 0.0, out=out_data)

    def vjp(g):
        g = g * (out_data > 0.0)  # relu(x) > 0 exactly where x > 0
        gmat = g.reshape(cout, -1)
        # the bits of gmat @ cols.T, from a GEMM that takes less time on these shapes
        gw = (cols @ gmat.T).T.reshape(weight.shape) if weight.requires_grad else None
        # per-frame sums added frame after frame: the order, and so the bits, of an NCHW sum
        gb = np.cumsum(g.reshape(cout, n, -1).sum(axis=2), axis=1)[:, -1]
        if not x.requires_grad:
            return None, gw, gb
        if stride == 1:  # flat shift: on the padded grid, tap (i, j) is one run at i * wp + j
            gmat = np.zeros((cout, n, hp, wp))
            gmat[:, :, :oh, :ow] = g
        gcols = (wmat.T @ gmat.reshape(cout, -1)).reshape(cin, kh * kw, -1)
        gxp, span = np.zeros((cin, n, hp, wp)), n * hp * wp - (kh - 1) * wp - (kw - 1)
        for k, (i, j) in enumerate(np.ndindex(kh, kw)):
            if stride == 1:
                gxp.reshape(cin, -1)[:, i * wp + j : i * wp + j + span] += gcols[:, k, :span]
            else:
                gxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gcols[:, k].reshape(cin, n, oh, ow)
        return gxp[:, :, padding : padding + h, padding : padding + w], gw, gb

    return _node(out_data, (x, weight, bias), vjp)


# ---------------------------------------------------------------------------
# backward pass and the gradient oracle


def backward(t: Tensor, grad=None) -> None:
    """Populate grads of every reachable leaf with d(t)/d(leaf).

    ``t`` must be scalar unless an explicit seed gradient is given.
    """
    if grad is None:
        if t.size != 1:
            raise ValueError("backward requires a scalar loss")
        grad = np.ones_like(t.data)
    if not t.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(t, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(t): np.asarray(grad, dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg

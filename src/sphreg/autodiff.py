"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray together with the closures needed to
push gradients back to its parents.  Graphs are built define-by-run: every
functional op below accepts either ``Tensor`` or plain ndarray arguments and
computes its value once; ``record`` is the one place that decides whether the
call records a node (only when some argument is a ``Tensor``; otherwise the
bare ndarray comes back), so the same forward code serves both training
(differentiable) and inference (pure numpy) paths.

The op set is only what the model records: elementwise arithmetic and
activations, matmul/einsum contractions, reductions, concatenation, row
gather/scatter, the row-wise ``cross`` product, and two smooth rotation
helpers (``sinc_sq``, ``cosc_sq``) whose series branches keep derivatives
finite at zero rotation.  Everything else in the package is composed from
these, except the zonal convolution (stacked NumPy ``matmul`` products)
and batch norm of ``shconv`` and ``warp.minimal_rotation_vectors``, which,
like ``cross``, record one node each through ``record`` and ``accumulate``
with a hand-written backward.

Every scatter-add (the backward of ``take_rows``, the forward of
``segment_sum``) is one ``np.bincount`` over row-major slots, which adds
each target's contributions in index order starting from +0.0, the order
of ``np.add.at``, so results are bitwise those of ``np.add.at``.  Both ops
take plain index arrays, so callers pass the tables they already own.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor", "parameter", "value_of", "is_tensor",
    "record", "accumulate",
    "add", "sub", "mul", "div", "matmul", "einsum2",
    "exp", "log", "sqrt", "square", "absolute",
    "relu", "leaky_relu", "elu",
    "reduce_sum", "reduce_mean", "concat", "reshape",
    "take_rows", "slice_rows",
    "segment_sum", "softmax_rows", "row_normalize",
    "sinc_sq", "cosc_sq", "cross",
]


class Tensor:
    """Node in a reverse-mode graph: a value plus backward plumbing."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        """Accumulate gradients of this (scalar) node into the whole graph."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar root")
        order = _topological_order(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def parameter(value):
    """Wrap an array as a leaf tensor (copied so callers keep ownership)."""
    return Tensor(np.array(value, dtype=np.float64))


def is_tensor(x) -> bool:
    return isinstance(x, Tensor)


def value_of(x):
    """Unwrap to a plain ndarray view (detached)."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _topological_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def accumulate(node, grad):
    """Add ``grad`` into ``node.grad``, as if onto +0.0 without a zero fill."""
    if node.grad is None:
        node.grad = np.add(grad, 0.0, out=np.empty_like(node.value))
    else:
        node.grad += grad


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    grad = np.asarray(grad)
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g_dim, s_dim) in enumerate(zip(grad.shape, shape)):
        if s_dim == 1 and g_dim != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def record(value, inputs, backward):
    """The one place that decides whether a call records a node: a Tensor
    when some input is one, else the bare ``value`` (``backward`` dropped)."""
    parents = tuple(x for x in inputs if isinstance(x, Tensor))
    return Tensor(value, parents, backward) if parents else value


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if is_tensor(a):
            accumulate(a, _unbroadcast(g, av.shape))
        if is_tensor(b):
            accumulate(b, _unbroadcast(g, bv.shape))

    return record(av + bv, (a, b), backward)


def sub(a, b):
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if is_tensor(a):
            accumulate(a, _unbroadcast(g, av.shape))
        if is_tensor(b):
            accumulate(b, _unbroadcast(-g, bv.shape))

    return record(av - bv, (a, b), backward)


def mul(a, b):
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if is_tensor(a):
            accumulate(a, _unbroadcast(g * bv, av.shape))
        if is_tensor(b):
            accumulate(b, _unbroadcast(g * av, bv.shape))

    return record(av * bv, (a, b), backward)


def div(a, b):
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if is_tensor(a):
            accumulate(a, _unbroadcast(g / bv, av.shape))
        if is_tensor(b):
            accumulate(b, _unbroadcast(-g * av / (bv * bv), bv.shape))

    return record(av / bv, (a, b), backward)


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects 2-D operands; use einsum2 otherwise")

    def backward(g):
        if is_tensor(a):
            accumulate(a, g @ bv.T)
        if is_tensor(b):
            accumulate(b, av.T @ g)

    return record(av @ bv, (a, b), backward)


def einsum2(subscripts, a, b):
    """Two-operand einsum with automatic backward.

    Each index of one operand must appear in the output or in the other
    operand (plain contractions only, no internal traces).
    """
    in_spec, out_spec = subscripts.replace(" ", "").split("->")
    spec_a, spec_b = in_spec.split(",")
    for name, spec, other in (("a", spec_a, spec_b), ("b", spec_b, spec_a)):
        if len(set(spec)) != len(spec):
            raise ValueError(f"repeated index in operand {name}: {subscripts}")
        if not set(spec) <= set(out_spec) | set(other):
            raise ValueError(f"dangling index in operand {name}: {subscripts}")
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if is_tensor(a):
            accumulate(a, np.einsum(f"{out_spec},{spec_b}->{spec_a}", g, bv))
        if is_tensor(b):
            accumulate(b, np.einsum(f"{out_spec},{spec_a}->{spec_b}", g, av))

    return record(np.einsum(subscripts, av, bv), (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise functions
# ---------------------------------------------------------------------------

def _unary(x, fn, dfn):
    v = value_of(x)
    out_value = fn(v)

    def backward(g):
        accumulate(x, g * dfn(v, out_value))

    return record(out_value, (x,), backward)


def exp(x):
    return _unary(x, np.exp, lambda v, o: o)


def log(x):
    return _unary(x, np.log, lambda v, o: 1.0 / v)


def sqrt(x):
    return _unary(x, np.sqrt, lambda v, o: 0.5 / o)


def square(x):
    return _unary(x, np.square, lambda v, o: 2.0 * v)


def absolute(x):
    return _unary(x, np.abs, lambda v, o: np.sign(v))


def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda v, o: (v > 0).astype(np.float64))


def leaky_relu(x, negative_slope=0.2):
    return _unary(x, lambda v: np.where(v > 0, v, negative_slope * v),
                  lambda v, o: np.where(v > 0, 1.0, negative_slope))


def elu(x):
    return _unary(x, lambda v: np.where(v > 0, v, np.expm1(v)),
                  lambda v, o: np.where(v > 0, 1.0, np.exp(v)))


# smooth rotation kernels: functions of t = theta^2 so they stay finite and
# differentiable at zero rotation.  Series branches cover t <= 1e-6 where the
# closed forms lose precision to cancellation.

def _sinc_sq_value(t):
    s = np.sqrt(np.maximum(t, 0.0))
    small = t <= 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.where(small, 1.0, np.sin(s) / np.where(small, 1.0, s))
    series = 1.0 - t / 6.0 + t * t / 120.0
    return np.where(small, series, direct)


def _sinc_sq_deriv(t):
    s = np.sqrt(np.maximum(t, 0.0))
    small = t <= 1e-6
    safe = np.where(small, 1.0, t)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (s * np.cos(s) - np.sin(s)) / (2.0 * safe * np.where(small, 1.0, s))
    series = -1.0 / 6.0 + t / 60.0
    return np.where(small, series, direct)


def sinc_sq(t):
    """sin(sqrt(t)) / sqrt(t), smooth through t = 0."""
    return _unary(t, _sinc_sq_value, lambda v, o: _sinc_sq_deriv(v))


def _cosc_sq_value(t):
    # 1 - cos(s) written as 2 sin^2(s/2): full relative precision at small s.
    s = np.sqrt(np.maximum(t, 0.0))
    small = t <= 1e-6
    safe = np.where(small, 1.0, t)
    half_sin = np.sin(0.5 * s)
    direct = 2.0 * half_sin * half_sin / safe
    series = 0.5 - t / 24.0 + t * t / 720.0
    return np.where(small, series, direct)


def _cosc_sq_deriv(t):
    # Direct numerator cancels to O(t^2); below t = 1e-3 the series is the
    # accurate branch (truncation ~1e-10 there, cancellation noise ~1e-4).
    s = np.sqrt(np.maximum(t, 0.0))
    small = t <= 1e-3
    safe = np.where(small, 1.0, t)
    direct = (0.5 * s * np.sin(s) - (1.0 - np.cos(s))) / (safe * safe)
    series = -1.0 / 24.0 + t / 360.0 - t * t / 13440.0
    return np.where(small, series, direct)


def cosc_sq(t):
    """(1 - cos(sqrt(t))) / t, smooth through t = 0."""
    return _unary(t, _cosc_sq_value, lambda v, o: _cosc_sq_deriv(v))


# ---------------------------------------------------------------------------
# ordered scatter
# ---------------------------------------------------------------------------

def _scatter(values, indices, n: int) -> np.ndarray:
    """Sum the entries of ``values``, whose leading ``indices.ndim`` axes run
    over ``indices``, into ``n`` rows; bitwise ``np.add.at`` into zeros."""
    trailing = values.shape[indices.ndim:]
    width = math.prod(trailing)
    slots = (indices.reshape(-1, 1) * width + np.arange(width)).ravel()
    sums = np.bincount(slots, weights=values.reshape(-1), minlength=n * width)
    # with no slots at all, bincount returns integer zeros
    return sums.astype(np.float64, copy=False).reshape((n,) + trailing)


# ---------------------------------------------------------------------------
# reductions, shaping, indexing
# ---------------------------------------------------------------------------

def reduce_sum(x, axis=None, keepdims=False):
    v = value_of(x)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(x, np.broadcast_to(g, v.shape).copy())

    return record(v.sum(axis=axis, keepdims=keepdims), (x,), backward)


def reduce_mean(x, axis=None, keepdims=False):
    v = value_of(x)
    count = v.size if axis is None else np.prod([v.shape[a] for a in np.atleast_1d(axis)])
    return div(reduce_sum(x, axis=axis, keepdims=keepdims), float(count))


def reshape(x, shape):
    v = value_of(x)

    def backward(g):
        accumulate(x, g.reshape(v.shape))

    return record(v.reshape(shape), (x,), backward)


def concat(parts, axis=0):
    values = [value_of(p) for p in parts]
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if is_tensor(part):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                accumulate(part, g[tuple(index)])

    return record(np.concatenate(values, axis=axis), tuple(parts), backward)


def take_rows(x, indices):
    """Gather the rows ``indices`` of ``x``; repeated rows accumulate on
    backward."""
    v = value_of(x)
    indices = np.asarray(indices)

    def backward(g):
        accumulate(x, _scatter(g, indices, v.shape[0]))

    return record(np.take(v, indices, axis=0), (x,), backward)


def slice_rows(x, start, stop):
    v = value_of(x)

    def backward(g):
        grad = np.zeros_like(v)
        grad[start:stop] = g
        accumulate(x, grad)

    return record(v[start:stop], (x,), backward)


def segment_sum(x, segments, n_segments: int):
    """out[s] = sum of the x rows whose segment id is s, added in row order,
    for s below ``n_segments``."""
    segments = np.asarray(segments)
    out = _scatter(value_of(x), segments, n_segments)

    def backward(g):
        accumulate(x, np.take(g, segments, axis=0))

    return record(out, (x,), backward)


# ---------------------------------------------------------------------------
# composed helpers
# ---------------------------------------------------------------------------

def softmax_rows(x):
    """Row softmax, stabilised by a detached per-row max."""
    shift = value_of(x).max(axis=-1, keepdims=True)
    e = exp(sub(x, shift))
    return div(e, reduce_sum(e, axis=-1, keepdims=True))


def row_normalize(x):
    """Project rows onto the unit sphere.

    Rows already unit up to 1e-12 pass through bitwise unchanged so that
    exactly-on-sphere inputs stay exact; the backward uses the same snapped
    scale, which only perturbs the Jacobian at O(1e-12).
    """
    v = value_of(x)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms < 0.5):
        raise ValueError("row_normalize: row norm below 0.5, geometry is degenerate")
    scale = np.where(np.abs(norms - 1.0) <= 1e-12, 1.0, 1.0 / norms)
    out_value = v * scale

    def backward(g):
        inner = np.sum(g * out_value, axis=-1, keepdims=True)
        accumulate(x, (g - out_value * inner) * scale)

    return record(out_value, (x,), backward)


def cross(a, b):
    """Row-wise cross product of (N, 3) operands.

    d(a x b) = da x b + a x db, so the gradient of <g, a x b> is b x g for
    ``a`` and g x a for ``b``."""
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if is_tensor(a):
            accumulate(a, np.cross(bv, g))
        if is_tensor(b):
            accumulate(b, np.cross(g, av))

    return record(np.cross(av, bv), (a, b), backward)

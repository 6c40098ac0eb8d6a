"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every primitive expresses its vector-Jacobian products through other
primitives, so the graph built while computing an input gradient is itself
differentiable. That makes gradients-of-gradients (as needed by a critic
gradient penalty) work without special casing.

`grad(output, inputs, create_graph=True)` keeps the returned adjoints
connected to the graph; with the default `create_graph=False` the backward
pass runs with graph recording switched off and returns plain values.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that stops ops from recording graph edges."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """An array plus the recipe for propagating adjoints to its parents."""

    __slots__ = ("data", "parents", "vjps", "requires_grad")

    def __init__(self, data, parents=(), vjps=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if _GRAD_ENABLED:
            keep = requires_grad or any(p.requires_grad for p in parents)
            self.parents = parents if keep else ()
            self.vjps = vjps if keep else ()
            self.requires_grad = keep
        else:
            self.parents = ()
            self.vjps = ()
            self.requires_grad = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(value):
    return Tensor(value)


def parameter(value):
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def _as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# shape bookkeeping

def _unbroadcast(g, shape):
    """Reduce an adjoint back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = sum_along(g, axis=0)
    axes = tuple(
        i for i, (have, want) in enumerate(zip(g.shape, shape))
        if want == 1 and have != 1
    )
    if axes:
        g = sum_along(g, axis=axes, keepdims=True)
    return g


def broadcast_to(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    return Tensor(
        np.broadcast_to(a.data, shape),
        (a,),
        (lambda g, s=a.shape: _unbroadcast(g, s),),
    )


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(
        a.data + b.data,
        (a, b),
        (
            lambda g, s=a.shape: _unbroadcast(g, s),
            lambda g, s=b.shape: _unbroadcast(g, s),
        ),
    )


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(
        a.data - b.data,
        (a, b),
        (
            lambda g, s=a.shape: _unbroadcast(g, s),
            lambda g, s=b.shape: _unbroadcast(neg(g), s),
        ),
    )


def neg(a):
    a = _as_tensor(a)
    return Tensor(-a.data, (a,), (lambda g: neg(g),))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(
        a.data * b.data,
        (a, b),
        (
            lambda g, s=a.shape: _unbroadcast(mul(g, b), s),
            lambda g, s=b.shape: _unbroadcast(mul(g, a), s),
        ),
    )


def scale(a, factor):
    """Multiply by a python scalar."""
    a = _as_tensor(a)
    factor = float(factor)
    return Tensor(a.data * factor, (a,), (lambda g: scale(g, factor),))


def power(a, exponent):
    """Elementwise a**p for a constant float p."""
    a = _as_tensor(a)
    exponent = float(exponent)
    return Tensor(
        a.data ** exponent,
        (a,),
        (lambda g: mul(g, scale(power(a, exponent - 1.0), exponent)),),
    )


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    gate = np.where(a.data >= 0.0, 1.0, slope)
    return Tensor(a.data * gate, (a,), (lambda g: mul(g, constant(gate)),))


# ---------------------------------------------------------------------------
# reductions and reshaping

def sum_along(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return broadcast_to(reshape(g, (1,) * a.ndim), a.shape)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            kept = list(g.shape)
            for ax in sorted(ax % a.ndim for ax in axes):
                kept.insert(ax, 1)
            g = reshape(g, tuple(kept))
        return broadcast_to(g, a.shape)

    return Tensor(data, (a,), (backward,))


def mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return scale(sum_along(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape):
    a = _as_tensor(a)
    return Tensor(
        a.data.reshape(shape),
        (a,),
        (lambda g, s=a.shape: reshape(g, s),),
    )


def transpose2d(a):
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError("transpose2d expects a 2-D tensor")
    return Tensor(a.data.T, (a,), (lambda g: transpose2d(g),))


def permute(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return Tensor(
        np.transpose(a.data, axes),
        (a,),
        (lambda g: permute(g, inverse),),
    )


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul expects 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not align")
    return Tensor(
        a.data @ b.data,
        (a, b),
        (
            lambda g: matmul(g, transpose2d(b)),
            lambda g: matmul(transpose2d(a), g),
        ),
    )


# ---------------------------------------------------------------------------
# strided patches / slicing (all linear)

def unfold(a, kernel, strides):
    """Strided patch extraction: (B, Mp, Np, C) -> (B, Mo, No, kh, kw, C).

    out[:, i, j, di, dj] = a[:, i*sm + di, j*sk + dj] with
    Mo = (Mp - kh) // sm + 1 and No = (Np - kw) // sk + 1.
    """
    a = _as_tensor(a)
    (kh, kw), (sm, sk) = kernel, strides
    if a.ndim != 4 or a.shape[1] < kh or a.shape[2] < kw:
        raise ShapeError(f"unfold of {a.shape} needs (B, >={kh}, >={kw}, C)")
    windows = sliding_window_view(a.data, (kh, kw), axis=(1, 2))[:, ::sm, ::sk]
    data = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return Tensor(
        data,
        (a,),
        (lambda g, size=a.shape[1:3]: fold(g, strides, size),),
    )


def fold(a, strides, size):
    """Adjoint of unfold: sum (B, Mo, No, kh, kw, C) patches into a
    (B, Mp, Np, C) grid with (Mp, Np) = size.

    Kernel offsets are added in reverse lexicographic order, so each grid
    cell sums its terms in ascending patch order, exactly like an
    element-by-element scatter over the patches.
    """
    a = _as_tensor(a)
    if a.ndim != 6:
        raise ShapeError("fold expects (B, Mo, No, kh, kw, C)")
    batch, mo, no, kh, kw, channels = a.shape
    (sm, sk), (mp, np_) = strides, size
    if (mp - kh) // sm + 1 != mo or (np_ - kw) // sk + 1 != no:
        raise ShapeError(f"fold of {a.shape} does not tile a {mp} x {np_} grid")
    out = np.zeros((batch, mp, np_, channels))
    for di in range(kh - 1, -1, -1):
        rows = slice(di, di + (mo - 1) * sm + 1, sm)
        for dj in range(kw - 1, -1, -1):
            out[:, rows, dj:dj + (no - 1) * sk + 1:sk] += a.data[:, :, :, di, dj]
    return Tensor(
        out,
        (a,),
        (lambda g: unfold(g, (kh, kw), strides),),
    )


# take_axis1 and scatter_axis1 are the index-map gather/scatter that unfold
# and fold replaced; no layer calls them. The benchmark's per-layer metric
# list still names them and its traced mode stops on a name it cannot find,
# so they stay until that list drops them.

def take_axis1(a, indices):
    """a[:, indices, :] for a of shape (B, P, C)."""
    a = _as_tensor(a)
    if a.ndim != 3:
        raise ShapeError("take_axis1 expects (B, P, C)")
    indices = np.asarray(indices, dtype=np.intp)
    return Tensor(
        a.data[:, indices, :],
        (a,),
        (lambda g, p=a.shape[1]: scatter_axis1(g, indices, p),),
    )


def scatter_axis1(a, indices, size):
    """Adjoint of take_axis1: sum rows of a into a (B, size, C) grid."""
    a = _as_tensor(a)
    if a.ndim != 3:
        raise ShapeError("scatter_axis1 expects (B, L, C)")
    indices = np.asarray(indices, dtype=np.intp)
    out = np.zeros((a.shape[0], size, a.shape[2]))
    np.add.at(out, (slice(None), indices), a.data)
    return Tensor(out, (a,), (lambda g: take_axis1(g, indices),))


def slice_axis(a, axis, start, stop):
    a = _as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)

    def backward(g, length=a.shape[axis]):
        return pad_axis(g, axis, start, length - stop)

    return Tensor(a.data[tuple(index)], (a,), (backward,))


def pad_axis(a, axis, before, after):
    a = _as_tensor(a)
    length = a.shape[axis]
    if before == 0 and after == 0:
        data = a.data
    else:
        shape = list(a.shape)
        shape[axis] += before + after
        data = np.zeros(shape)
        index = [slice(None)] * a.ndim
        index[axis] = slice(before, before + length)
        data[tuple(index)] = a.data

    def backward(g):
        return slice_axis(g, axis, before, before + length)

    return Tensor(data, (a,), (backward,))


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def make_backward(i):
        return lambda g: slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1]))

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors),
        tuple(make_backward(i) for i in range(len(tensors))),
    )


# ---------------------------------------------------------------------------
# backward pass

def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def grad(output, inputs, output_grad=None, create_graph=False):
    """Adjoints of `output` with respect to each tensor in `inputs`.

    output_grad seeds the backward pass (ones by default). When create_graph
    is true, returned adjoints stay differentiable.
    """
    if output_grad is None:
        seed = Tensor(np.ones(output.shape))
    else:
        seed = _as_tensor(output_grad)

    wanted = {id(t) for t in inputs}
    results = {}

    def run():
        adjoints = {id(output): seed}
        for node in reversed(_topo_order(output)):
            g = adjoints.pop(id(node), None)
            if g is None:
                continue
            if id(node) in wanted:
                results[id(node)] = g
            for parent, vjp in zip(node.parents, node.vjps):
                if not parent.requires_grad:
                    continue
                contribution = vjp(g)
                held = adjoints.get(id(parent))
                adjoints[id(parent)] = (
                    contribution if held is None else add(held, contribution)
                )

    if create_graph:
        run()
    else:
        with no_grad():
            run()

    return [
        results.get(id(t)) if results.get(id(t)) is not None else Tensor(np.zeros(t.shape))
        for t in inputs
    ]

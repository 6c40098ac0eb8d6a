"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every primitive expresses its vector-Jacobian products through other
primitives, so the graph built while computing an input gradient is itself
differentiable. That makes gradients-of-gradients (as needed by a critic
gradient penalty) work without special casing.

`grad(output, inputs, create_graph=True)` keeps the returned adjoints
connected to the graph; with the default `create_graph=False` the backward
pass runs with graph recording switched off and returns plain values.

The graph is made of nodes, not tensors. A Tensor gets a node only while
recording, and only when it requires grad. A node holds the nodes of the
parents that require grad and one vjp for each of them, never an array. So
an intermediate array lives only while its caller holds the Tensor or a
vjp captured it because that backward reads it:
- `mul`, `matmul` and `affine` keep one operand only for the gradient of
  another operand that requires grad;
- `power` and `sqrt` keep their base;
- `leaky_relu` keeps the boolean gate a >= 0, not a.
Every other vjp captures only shapes, axes, offsets or indices.
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


def recording():
    """True unless under no_grad: new ops may record graph edges."""
    return _GRAD_ENABLED


class _Node:
    """One recorded op: the nodes of its parents that require grad, and for
    each the vjp that maps this node's adjoint to that parent's share."""

    __slots__ = ("parents", "vjps", "__weakref__")

    def __init__(self, parents, vjps):
        self.parents = parents
        self.vjps = vjps


class Tensor:
    """An array plus, while it requires grad, its node in the graph."""

    __slots__ = ("data", "node")

    def __init__(self, data, parents=(), vjps=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = None
        if _GRAD_ENABLED:
            edges = [(p.node, vjp) for p, vjp in zip(parents, vjps)
                     if p.node is not None]
            if edges or requires_grad:
                self.node = _Node(tuple(n for n, _ in edges),
                                  tuple(vjp for _, vjp in edges))

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

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
            lambda g, s=b.shape: _unbroadcast(scale(g, -1.0), s),
        ),
    )


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


def sqrt(a):
    """a**0.5 of a >= 0: power(a, 0.5) where a > 0, at every order of
    differentiation, but every slope is 0 where a == 0, not infinite."""
    return _power_of_positive(_as_tensor(a), 0.5)


def _power_of_positive(a, exponent):
    """a**p where a > 0, else 0; its slope p * a**(p - 1) likewise."""
    positive = a.data > 0
    data = np.where(positive, a.data, 1.0) ** exponent
    data[~positive] = 0.0
    return Tensor(data, (a,), (
        lambda g: mul(g, scale(_power_of_positive(a, exponent - 1.0), exponent)),))


def leaky_relu(a, slope):
    """max(a, slope * a) for 0 < slope <= 1. While recording, the vjp keeps
    the boolean gate a >= 0, not a."""
    a = _as_tensor(a)
    out = a.data * slope
    np.maximum(out, a.data, out=out)
    if not a.requires_grad or not _GRAD_ENABLED:
        return Tensor(out)
    gate = a.data >= 0.0

    def backward(g):
        return mul(g, constant(np.where(gate, 1.0, slope)))

    return Tensor(out, (a,), (backward,))


# ---------------------------------------------------------------------------
# reductions and reshaping

def sum_along(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims)
    shape, ndim = a.shape, a.ndim

    def backward(g):
        if axis is None:
            return broadcast_to(reshape(g, (1,) * ndim), shape)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            kept = list(g.shape)
            for ax in sorted(ax % ndim for ax in axes):
                kept.insert(ax, 1)
            g = reshape(g, tuple(kept))
        return broadcast_to(g, shape)

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


def _check_product(name, a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"{name} expects 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{name} shapes {a.shape} and {b.shape} do not align")


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_product("matmul", a, b)
    return Tensor(
        a.data @ b.data,
        (a, b),
        (
            lambda g: matmul(g, transpose2d(b)),
            lambda g: matmul(transpose2d(a), g),
        ),
    )


def affine(x, w, b):
    """x @ w + b as one node: add(matmul(x, w), b) bit for bit, at every
    order, with the bias added in place into the fresh product."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _check_product("affine", x, w)
    out = x.data @ w.data
    try:
        out += b.data
    except ValueError:
        raise ShapeError(f"affine bias {b.shape} does not fit {out.shape}") from None
    return Tensor(
        out,
        (x, w, b),
        (
            lambda g: matmul(g, transpose2d(w)),
            lambda g: matmul(transpose2d(x), g),
            lambda g, s=b.shape: _unbroadcast(g, s),
        ),
    )


# ---------------------------------------------------------------------------
# patches / slicing (all linear)

def _cells(length, before, after, taps, stride):
    """Cells of a padded axis, and the number of `taps`-cell patches in it."""
    cells, rest = divmod(before + length + after, stride)
    if min(before, after) < 0 or rest or cells < taps:
        raise ShapeError(f"{before}+{length}+{after} is not {taps}+ cells of {stride}")
    return cells, cells - taps + 1


def gather(a, taps, strides, pads):
    """Zero-pad (B, M, N, C) by pads = (top, bottom, left, right) into a grid
    of (sm, sk) cells and copy its patches of (th, tw) cells, once, into a
    contiguous (B, Mo, No, th, tw, sm, sk, C) array:
    out[:, i, j, di, dj, r, q] = padded[:, (i + di)*sm + r, (j + dj)*sk + q]."""
    a = _as_tensor(a)
    (th, tw), (sm, sk), (top, bottom, left, right) = taps, strides, pads
    batch, m, n, channels = a.shape
    cells_m, _ = _cells(m, top, bottom, th, sm)
    cells_n, _ = _cells(n, left, right, tw, sk)
    padded = np.zeros((batch, cells_m * sm, cells_n * sk, channels))
    padded[:, top:top + m, left:left + n] = a.data
    cells = padded.reshape(batch, cells_m, sm, cells_n, sk, channels)
    windows = sliding_window_view(cells, (th, tw), axis=(1, 3))
    data = np.ascontiguousarray(windows.transpose(0, 1, 3, 6, 7, 2, 4, 5))
    return Tensor(data, (a,), (lambda g: scatter(g, (m, n), pads),))


def scatter(a, size, pads):
    """Adjoint of gather: sum the patches into the padded grid, cropped to
    (B, M, N, C) with (M, N) = size. Taps are added onto zeros in reverse
    lexicographic order, so each cell sums its terms in ascending patch
    order, like an element-by-element scatter. A single tap is only moved.
    """
    a = _as_tensor(a)
    batch, mo, no, th, tw, sm, sk, channels = a.shape
    (m, n), (top, bottom, left, right) = size, pads
    cells_m, want_m = _cells(m, top, bottom, th, sm)
    cells_n, want_n = _cells(n, left, right, tw, sk)
    if (mo, no) != (want_m, want_n):
        raise ShapeError(f"scatter of {a.shape} does not tile {size} padded by {pads}")
    if (th, tw) == (1, 1):
        grid = a.data.reshape(batch, mo, no, sm, sk, channels)
    else:
        grid = np.zeros((batch, cells_m, cells_n, sm, sk, channels))
        for di in range(th - 1, -1, -1):
            for dj in range(tw - 1, -1, -1):
                grid[:, di:di + mo, dj:dj + no] += a.data[:, :, :, di, dj]
    grid = grid.transpose(0, 1, 3, 2, 4, 5).reshape(
        batch, cells_m * sm, cells_n * sk, channels)
    return Tensor(grid[:, top:top + m, left:left + n], (a,),
                  (lambda g: gather(g, (th, tw), (sm, sk), pads),))


def flip(a, axes):
    """Reverse the order along `axes`; its own adjoint."""
    a = _as_tensor(a)
    axes = tuple(axes)
    return Tensor(np.flip(a.data, axes), (a,), (lambda g: flip(g, axes),))


# take_axis1 and scatter_axis1 are an index-map gather/scatter that gather
# and scatter above replaced; no layer calls them. The benchmark's per-layer
# metric list still names them and its traced mode stops on a name it cannot
# find, so they stay until that list drops them.

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
    if before == 0 and after == 0:
        return a
    length = a.shape[axis]
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
    """The nodes of root's graph, each after all of its parents."""
    order = []
    seen = set()
    stack = [(root, False)] if root is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def grad(output, inputs, *, create_graph=False):
    """Adjoints of `output` with respect to each tensor in `inputs`.

    The backward pass is seeded with ones. When create_graph is true,
    returned adjoints stay differentiable.

    Only nodes on a path to a wanted input receive adjoints: no vjp runs
    for an edge whose parent reaches none of `inputs`.
    """
    seed = Tensor(np.ones(output.shape))
    wanted = {id(t.node) for t in inputs if t.node is not None}
    results = {}
    order = _topo_order(output.node)
    # parents come before their children in `order`
    on_path = set(wanted)
    for node in order:
        for parent in node.parents:
            if id(parent) in on_path:
                on_path.add(id(node))
                break

    def run():
        adjoints = {id(output.node): seed}
        for node in reversed(order):
            g = adjoints.pop(id(node), None)
            if g is None:
                continue
            if id(node) in wanted:
                results[id(node)] = g
            for parent, vjp in zip(node.parents, node.vjps):
                if id(parent) not in on_path:
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

    # results has no key id(None), so an input with no node gets zeros
    return [
        results.get(id(t.node)) if results.get(id(t.node)) is not None
        else Tensor(np.zeros(t.shape))
        for t in inputs
    ]

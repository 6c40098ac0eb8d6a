"""Finite-difference oracles for every autodiff primitive and layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from octaudio.errors import ShapeError
from octaudio.nn import autodiff as ad
from octaudio.nn.layers import (
    _pad_before,
    _phase_kernel,
    concat_bands,
    conv2d,
    dense,
    leaky_relu,
    minibatch_stddev,
    slice_bands,
    transposed_conv2d,
)

H = 1e-5
TOL = 1e-4


def central_difference(scalar_fn, leaves, h=H):
    """Numerical gradient of scalar_fn() wrt each leaf tensor's data."""
    grads = []
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        out = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(scalar_fn().data)
            flat[i] = orig - h
            down = float(scalar_fn().data)
            flat[i] = orig
            out[i] = (up - down) / (2 * h)
        grads.append(out.reshape(leaf.shape))
    return grads


def assert_grads_match(scalar_fn, leaves, tol=TOL, h=H):
    analytic = ad.grad(scalar_fn(), leaves)
    numeric = central_difference(scalar_fn, leaves, h)
    for got, want in zip(analytic, numeric):
        scale = max(np.max(np.abs(want)), 1.0)
        err = np.max(np.abs(got.data - want)) / scale
        assert err <= tol, f"gradient mismatch: {err}"


def leaf(rng, shape, offset=0.0):
    return ad.parameter(rng.standard_normal(shape) + offset)


def test_add_sub_mul_grads():
    rng = np.random.default_rng(0)
    a, b = leaf(rng, (3, 4)), leaf(rng, (3, 4))
    assert_grads_match(lambda: ad.sum_along(ad.mul(ad.add(a, b), ad.sub(a, b))), [a, b])


def test_broadcast_add_grads():
    rng = np.random.default_rng(1)
    a, b = leaf(rng, (3, 4)), leaf(rng, (4,))
    assert_grads_match(lambda: ad.sum_along(ad.power(ad.add(a, b), 2.0)), [a, b])


def test_scale_neg_power_grads():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.uniform(0.5, 2.0, (4, 3)))
    assert_grads_match(
        lambda: ad.sum_along(ad.scale(ad.power(a, 1.5), -0.7)), [a]
    )


def test_sqrt_grads():
    rng = np.random.default_rng(3)
    a = ad.parameter(rng.uniform(0.5, 4.0, (5,)))
    assert_grads_match(lambda: ad.sum_along(ad.power(a, 0.5)), [a])
    assert_grads_match(lambda: ad.sum_along(ad.sqrt(a)), [a])


def second_order(root, a, weights):
    """root(a), its gradient and the gradient of that gradient, as arrays."""
    out = root(a)
    (g,) = ad.grad(ad.sum_along(ad.mul(out, weights)), [a], create_graph=True)
    (gg,) = ad.grad(ad.sum_along(ad.power(g, 2.0)), [a])
    return out.data, g.data, gg.data


def test_sqrt_is_bitwise_power_half_where_positive():
    rng = np.random.default_rng(30)
    weights = rng.standard_normal((4, 5))
    a = ad.parameter(rng.uniform(1e-6, 3.0, (4, 5)))
    for got, want in zip(second_order(ad.sqrt, a, weights),
                         second_order(lambda t: ad.power(t, 0.5), a, weights)):
        assert got.tobytes() == want.tobytes()


def test_sqrt_slope_is_zero_at_zero():
    rng = np.random.default_rng(31)
    weights = rng.standard_normal(6)
    data = rng.uniform(0.5, 2.0, 6)
    data[[1, 4]] = 0.0
    out, g, gg = second_order(ad.sqrt, ad.parameter(data), weights)
    positive = data > 0
    _, want_g, want_gg = second_order(
        lambda t: ad.power(t, 0.5), ad.parameter(data[positive]), weights[positive])
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(gg))
    np.testing.assert_array_equal(out[~positive], 0.0)
    np.testing.assert_array_equal(g[~positive], 0.0)
    np.testing.assert_array_equal(gg[~positive], 0.0)
    np.testing.assert_array_equal(g[positive], want_g)
    np.testing.assert_array_equal(gg[positive], want_gg)


def test_mean_keepdims_grads():
    rng = np.random.default_rng(4)
    a = leaf(rng, (2, 3, 4))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.mean(a, axis=(0, 2), keepdims=True), 2.0)),
        [a],
    )


def test_matmul_transpose_grads():
    rng = np.random.default_rng(5)
    a, b = leaf(rng, (3, 4)), leaf(rng, (4, 2))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.matmul(a, b), 2.0)), [a, b]
    )


def test_permute_reshape_grads():
    rng = np.random.default_rng(6)
    a = leaf(rng, (2, 3, 4, 5))
    assert_grads_match(
        lambda: ad.sum_along(
            ad.power(ad.reshape(ad.permute(a, (2, 0, 3, 1)), (4, 30)), 2.0)
        ),
        [a],
    )


def test_take_scatter_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng, (2, 6, 3))
    idx = np.array([0, 2, 2, 5, 1])
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.take_axis1(a, idx), 2.0)), [a]
    )
    b = leaf(rng, (2, 5, 3))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.scatter_axis1(b, idx, 8), 2.0)), [b]
    )


def test_take_scatter_are_adjoint():
    rng = np.random.default_rng(8)
    idx = np.array([1, 3, 3, 0])
    x = rng.standard_normal((2, 5, 2))
    y = rng.standard_normal((2, 4, 2))
    lhs = np.sum(ad.take_axis1(ad.constant(x), idx).data * y)
    rhs = np.sum(ad.scatter_axis1(ad.constant(y), idx, 5).data * x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def scatter_reference(patches, size, pads):
    """np.add.at over flat patch indices into the padded grid, then the crop:
    an element-by-element scatter, kept as scatter's bit-for-bit oracle."""
    batch, mo, no, th, tw, sm, sk, channels = patches.shape
    top, bottom, left, right = pads
    rows, cols = top + size[0] + bottom, left + size[1] + right
    i, j, di, dj, r, q = np.ix_(*map(np.arange, (mo, no, th, tw, sm, sk)))
    flat = (((i + di) * sm + r) * cols + (j + dj) * sk + q).reshape(-1)
    out = np.zeros((batch, rows * cols, channels))
    np.add.at(out, (slice(None), flat), patches.reshape(batch, -1, channels))
    out = out.reshape(batch, rows, cols, channels)
    return out[:, top:rows - bottom, left:cols - right], flat


def test_gather_scatter_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng, (2, 5, 4, 3))
    for taps, strides, pads in [((3, 2), (1, 1), (1, 1, 0, 1)),
                                ((2, 2), (2, 1), (1, 0, 0, 1)),
                                ((1, 1), (2, 3), (0, 1, 1, 1))]:
        assert_grads_match(
            lambda: ad.sum_along(ad.power(ad.gather(a, taps, strides, pads), 2.0)), [a]
        )
    b = leaf(rng, (2, 2, 4, 2, 2, 2, 1, 3))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.scatter(b, (5, 4), (1, 0, 0, 1)), 2.0)), [b]
    )
    c = leaf(rng, (2, 3, 2, 1, 1, 2, 2, 3))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.scatter(c, (5, 3), (1, 0, 0, 1)), 2.0)), [c]
    )


@pytest.mark.deep
@settings(deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(1, 3),
    st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
    st.data(),
)
def test_gather_scatter_are_adjoint(batch, channels, th, tw, sm, sk, mo, no, data):
    rows, cols = (mo + th - 1) * sm, (no + tw - 1) * sk
    top = data.draw(st.integers(0, rows - 1))
    bottom = data.draw(st.integers(0, rows - 1 - top))
    left = data.draw(st.integers(0, cols - 1))
    right = data.draw(st.integers(0, cols - 1 - left))
    size, pads = (rows - top - bottom, cols - left - right), (top, bottom, left, right)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((batch, *size, channels))
    y = rng.standard_normal((batch, mo, no, th, tw, sm, sk, channels))
    patches = ad.gather(ad.constant(x), (th, tw), (sm, sk), pads).data
    scattered = ad.scatter(ad.constant(y), size, pads).data
    assert patches.shape == y.shape and scattered.shape == x.shape
    lhs, rhs = np.sum(patches * y), np.sum(x * scattered)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.sum(np.abs(patches * y)))
    reference, flat = scatter_reference(y, size, pads)
    np.testing.assert_array_equal(scattered, reference)
    padded = np.zeros((batch, rows, cols, channels))
    padded[:, top:top + size[0], left:left + size[1]] = x
    np.testing.assert_array_equal(
        patches.reshape(batch, -1, channels),
        padded.reshape(batch, -1, channels)[:, flat],
    )


def test_single_tap_scatter_only_moves():
    # depth-to-space: nothing is added, so -0.0 keeps its sign
    y = np.full((1, 2, 1, 1, 1, 2, 3, 1), -0.0)
    out = ad.scatter(ad.constant(y), (3, 3), (1, 0, 0, 0)).data
    assert out.shape == (1, 3, 3, 1) and np.all(np.signbit(out))


def test_gather_scatter_reject_grids_of_partial_cells():
    x = ad.constant(np.zeros((1, 5, 4, 1)))
    with pytest.raises(ShapeError):
        ad.gather(x, (1, 1), (2, 1), (0, 0, 0, 0))    # 5 rows are not whole 2-row cells
    with pytest.raises(ShapeError):
        ad.gather(x, (4, 1), (2, 1), (1, 0, 0, 0))    # 3 cells hold no 4-cell patch
    with pytest.raises(ShapeError):
        ad.gather(x, (1, 1), (1, 1), (0, 0, -1, 0))
    y = ad.constant(np.zeros((1, 3, 2, 2, 2, 1, 1, 1)))
    with pytest.raises(ShapeError):
        ad.scatter(y, (8, 3), (0, 0, 0, 0))   # 8 rows hold 7 height-2 patches, not 3


def test_flip_grads_and_self_adjoint():
    rng = np.random.default_rng(8)
    a = leaf(rng, (3, 4, 2))
    np.testing.assert_array_equal(ad.flip(a, (0, 2)).data, a.data[::-1, :, ::-1])
    weights = rng.standard_normal((3, 4, 2))
    assert_grads_match(
        lambda: ad.sum_along(ad.mul(ad.flip(a, (0, 2)), weights)), [a]
    )


def test_slice_pad_concat_grads():
    rng = np.random.default_rng(9)
    a = leaf(rng, (2, 5, 4, 3))

    def fn():
        left = ad.slice_axis(a, 2, 0, 2)
        right = ad.pad_axis(ad.slice_axis(a, 2, 2, 4), 1, 1, 0)
        right = ad.slice_axis(right, 1, 0, 5)
        return ad.sum_along(ad.power(ad.concat([left, right], 2), 2.0))

    assert_grads_match(fn, [a])


def test_zero_pad_is_its_input():
    a = ad.parameter(np.ones((2, 3)))
    assert ad.pad_axis(a, 1, 0, 0) is a


def test_leaky_relu_grads_away_from_kink():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((4, 4))
    data[np.abs(data) < 0.05] = 0.1          # keep finite differences clean
    a = ad.parameter(data)
    assert_grads_match(lambda: ad.sum_along(ad.power(ad.leaky_relu(a, 0.2), 2.0)), [a])


def test_leaky_relu_values():
    out = ad.leaky_relu(ad.constant([-1.0, 0.0, 2.0]), 0.2)
    np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])


def test_leaky_relu_is_bitwise_the_gated_product():
    # the former formula, a * where(a >= 0, 1, slope), including -0.0 and NaN
    rng = np.random.default_rng(10)
    data = np.concatenate([
        rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40),
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324],
    ])
    for slope in (0.2, 0.01, 1.0):
        gate = np.where(data >= 0.0, 1.0, slope)
        a = ad.parameter(data.copy())
        out = ad.leaky_relu(a, slope)
        assert out.data.tobytes() == (data * gate).tobytes()
        g = rng.standard_normal(data.shape)
        (ga,) = ad.grad(ad.mul(out, g), [a])      # seeded with ones: dL/dout = g
        assert ga.data.tobytes() == (g * gate).tobytes()


def test_dense_identity_passthrough():
    x = ad.constant(np.arange(6.0).reshape(2, 3))
    out = dense(x, ad.constant(np.eye(3)), ad.constant(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_dense_grads():
    rng = np.random.default_rng(11)
    x, w, b = leaf(rng, (3, 4)), leaf(rng, (4, 2)), leaf(rng, (2,))
    assert_grads_match(lambda: ad.sum_along(ad.power(dense(x, w, b), 2.0)), [x, w, b])


@pytest.mark.parametrize("strides,kernel", [((1, 1), (3, 3)), ((2, 2), (3, 3)),
                                            ((4, 1), (8, 3)), ((1, 2), (1, 4))])
def test_conv2d_grads(strides, kernel):
    rng = np.random.default_rng(12)
    x = leaf(rng, (2, 4, 4, 3), offset=0.2)
    w = ad.parameter(rng.standard_normal((*kernel, 3, 2)) * 0.5)
    b = leaf(rng, (2,))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(conv2d(x, w, b, strides), 2.0)), [x, w, b]
    )


@pytest.mark.parametrize("strides,kernel", [((4, 1), (8, 3)), ((1, 2), (1, 4))])
def test_transposed_conv2d_grads(strides, kernel):
    rng = np.random.default_rng(13)
    x = leaf(rng, (2, 3, 4, 2), offset=0.2)
    w = ad.parameter(rng.standard_normal((*kernel, 2, 3)) * 0.5)
    b = leaf(rng, (3,))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(transposed_conv2d(x, w, b, strides), 2.0)),
        [x, w, b],
    )


def test_transposed_conv2d_shape_contract():
    rng = np.random.default_rng(14)
    x = ad.constant(rng.standard_normal((3, 2, 4, 5)))
    w = ad.constant(rng.standard_normal((1, 4, 5, 7)))
    b = ad.constant(np.zeros(7))
    out = transposed_conv2d(x, w, b, (1, 2))
    assert out.shape == (3, 2, 8, 7)


# The strided unfold/fold pair and the layers built on it before the
# polyphase form: a test-local oracle for conv2d and transposed_conv2d.

def strided_unfold(a, kernel, strides):
    (kh, kw), (sm, sk) = kernel, strides
    windows = sliding_window_view(a.data, (kh, kw), axis=(1, 2))[:, ::sm, ::sk]
    data = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return ad.Tensor(
        data, (a,), (lambda g, size=a.shape[1:3]: strided_fold(g, strides, size),)
    )


def strided_fold(a, strides, size):
    batch, mo, no, kh, kw, channels = a.shape
    (sm, sk), (mp, np_) = strides, size
    out = np.zeros((batch, mp, np_, channels))
    for di in range(kh - 1, -1, -1):
        rows = slice(di, di + (mo - 1) * sm + 1, sm)
        for dj in range(kw - 1, -1, -1):
            out[:, rows, dj:dj + (no - 1) * sk + 1:sk] += a.data[:, :, :, di, dj]
    return ad.Tensor(out, (a,), (lambda g: strided_unfold(g, (kh, kw), strides),))


def pad_amounts(length, kernel, stride):
    total = max((-(-length // stride) - 1) * stride + kernel - length, 0)
    return total // 2, total - total // 2


def oracle_conv2d(x, weights, bias, strides):
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    h = ad.pad_axis(x, 1, *pad_amounts(m, kh, strides[0]))
    h = ad.pad_axis(h, 2, *pad_amounts(n, kw, strides[1]))
    patches = strided_unfold(h, (kh, kw), strides)
    mo, no = patches.shape[1:3]
    patches = ad.reshape(patches, (batch * mo * no, kh * kw * cin))
    out = ad.matmul(patches, ad.reshape(weights, (kh * kw * cin, cout)))
    return ad.reshape(ad.add(out, bias), (batch, mo, no, cout))


def oracle_transposed_conv2d(x, weights, bias, strides):
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    (sm, sk) = strides
    mo, no = m * sm, n * sk
    before_m, after_m = pad_amounts(mo, kh, sm)
    before_n, after_n = pad_amounts(no, kw, sk)
    w2d = ad.reshape(ad.permute(weights, (2, 0, 1, 3)), (cin, kh * kw * cout))
    t = ad.matmul(ad.reshape(x, (batch * m * n, cin)), w2d)
    t = ad.reshape(t, (batch, m, n, kh, kw, cout))
    size = (before_m + mo + after_m, before_n + no + after_n)
    spread = strided_fold(t, strides, size)
    cropped = ad.slice_axis(spread, 1, before_m, before_m + mo)
    cropped = ad.slice_axis(cropped, 2, before_n, before_n + no)
    return ad.add(cropped, bias)


ORACLE_CASES = [((8, 3), (4, 1)), ((1, 4), (1, 2)), ((3, 3), (2, 2)),
                ((3, 3), (1, 1)), ((5, 2), (3, 2)), ((2, 5), (1, 3)),
                ((1, 1), (2, 3))]


def assert_relative(got, want, tol=1e-12):
    assert got.shape == want.shape
    err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)
    assert err <= tol, f"relative error {err}"


def assert_layer_matches_oracle(layer, oracle, x, w, b, strides, rng):
    out = layer(x, w, b, strides)
    want = oracle(x, w, b, strides)
    assert_relative(out.data, want.data)
    probe = ad.constant(rng.standard_normal(want.shape))
    got = ad.grad(ad.sum_along(ad.mul(out, probe)), [x, w, b])
    ref = ad.grad(ad.sum_along(ad.mul(want, probe)), [x, w, b])
    for g, r in zip(got, ref):
        assert_relative(g.data, r.data)


@pytest.mark.parametrize("grid", [(7, 5), (8, 6)], ids=["odd", "even"])
@pytest.mark.parametrize("kernel,strides", ORACLE_CASES)
def test_conv2d_matches_strided_oracle(kernel, strides, grid):
    rng = np.random.default_rng(20)
    x = leaf(rng, (2, *grid, 3))
    w, b = leaf(rng, (*kernel, 3, 4)), leaf(rng, (4,))
    assert_layer_matches_oracle(conv2d, oracle_conv2d, x, w, b, strides, rng)


@pytest.mark.parametrize("grid", [(3, 5), (4, 2)], ids=["odd", "even"])
@pytest.mark.parametrize("kernel,strides", ORACLE_CASES)
def test_transposed_conv2d_matches_strided_oracle(kernel, strides, grid):
    rng = np.random.default_rng(21)
    x = leaf(rng, (2, *grid, 3))
    w, b = leaf(rng, (*kernel, 3, 4)), leaf(rng, (4,))
    assert_layer_matches_oracle(
        transposed_conv2d, oracle_transposed_conv2d, x, w, b, strides, rng
    )


# The layer chains from before gather and scatter owned the cell layout:
# pad -> space-to-depth -> stride-1 unfold, and depth-to-space -> crop, with
# strided_unfold/strided_fold at stride 1 as that unfold and fold.

def chain_conv2d(x, weights, bias, strides):
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    sm, sk = strides
    w = _phase_kernel(weights, strides)
    th, tw = w.shape[0], w.shape[2]
    mo, no = -(-m // sm), -(-n // sk)
    before_m, before_n = _pad_before(m, kh, sm), _pad_before(n, kw, sk)
    h = ad.pad_axis(x, 1, before_m, (mo + th - 1) * sm - m - before_m)
    h = ad.pad_axis(h, 2, before_n, (no + tw - 1) * sk - n - before_n)
    h = ad.reshape(h, (batch, mo + th - 1, sm, no + tw - 1, sk, cin))
    h = ad.permute(h, (0, 1, 3, 2, 4, 5))
    h = ad.reshape(h, (batch, mo + th - 1, no + tw - 1, sm * sk * cin))
    w = ad.permute(w, (0, 2, 1, 3, 4, 5))
    patches = strided_unfold(h, (th, tw), (1, 1))
    patches = ad.reshape(patches, (batch * mo * no, th * tw * sm * sk * cin))
    out = ad.matmul(patches, ad.reshape(w, (th * tw * sm * sk * cin, cout)))
    return ad.reshape(ad.add(out, bias), (batch, mo, no, cout))


def chain_transposed_conv2d(x, weights, bias, strides):
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    sm, sk = strides
    w = _phase_kernel(weights, strides)
    th, tw = w.shape[0], w.shape[2]
    mo, no = m * sm, n * sk
    before_m, before_n = _pad_before(mo, kh, sm), _pad_before(no, kw, sk)
    first_m, last_m = before_m // sm, (before_m + mo - 1) // sm
    first_n, last_n = before_n // sk, (before_n + no - 1) // sk
    h = ad.pad_axis(x, 1, th - 1 - first_m, last_m - (m - 1))
    h = ad.pad_axis(h, 2, tw - 1 - first_n, last_n - (n - 1))
    cells_m, cells_n = last_m - first_m + 1, last_n - first_n + 1
    patches = strided_unfold(h, (th, tw), (1, 1))
    patches = ad.reshape(patches, (batch * cells_m * cells_n, th * tw * cin))
    w = ad.permute(ad.flip(w, (0, 2)), (0, 2, 4, 1, 3, 5))
    t = ad.matmul(patches, ad.reshape(w, (th * tw * cin, sm * sk * cout)))
    t = ad.reshape(t, (batch, cells_m, cells_n, sm, sk, cout))
    t = ad.permute(t, (0, 1, 3, 2, 4, 5))
    t = ad.reshape(t, (batch, cells_m * sm, cells_n * sk, cout))
    top, left = before_m - first_m * sm, before_n - first_n * sk
    t = ad.slice_axis(t, 1, top, top + mo)
    t = ad.slice_axis(t, 2, left, left + no)
    return ad.add(t, bias)


def output_and_gradients(layer, x, w, b, strides, probe):
    """out, d<out, probe>/d(x, w, b), and d|d<out, probe>/dx|^2/dw."""
    out = layer(x, w, b, strides)
    grads = ad.grad(ad.sum_along(ad.mul(out, probe)), [x, w, b], create_graph=True)
    (second,) = ad.grad(ad.sum_along(ad.power(grads[0], 2.0)), [w])
    return [out.data, *(g.data for g in grads), second.data]


@pytest.mark.parametrize("layer,chain,grids", [
    (conv2d, chain_conv2d, [(7, 5), (8, 6)]),
    (transposed_conv2d, chain_transposed_conv2d, [(3, 5), (4, 2)]),
], ids=["conv2d", "transposed_conv2d"])
@pytest.mark.parametrize("kernel,strides", ORACLE_CASES)
def test_layers_are_bitwise_the_pad_and_unfold_chains(layer, chain, grids, kernel,
                                                      strides):
    rng = np.random.default_rng(22)
    for grid in grids:
        x = leaf(rng, (2, *grid, 3))
        x.data[0, 1, 1, 0] = -0.0
        # sample 1 against output channel 0 underflows, so with a fused
        # multiply-add the matmul yields signed zeros, which the -0.0 bias keeps
        x.data[1] *= 1e-130
        w = leaf(rng, (*kernel, 3, 4))
        w.data[..., 0] *= 1e-200
        b = leaf(rng, (4,))
        b.data[0] = -0.0
        probe = ad.constant(rng.standard_normal((2, *layer(x, w, b, strides).shape[1:])))
        got = output_and_gradients(layer, x, w, b, strides, probe)
        want = output_and_gradients(chain, x, w, b, strides, probe)
        for g, r in zip(got, want):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.deep
@settings(deadline=None)
@given(
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
)
def test_conv2d_transposed_conv2d_are_adjoint(batch, cin, cout, m, n, kh, kw,
                                              sm, sk, seed):
    # <conv2d(x), y> == <x, transposed_conv2d(y)> when x's axes are s*(y's)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, m * sm, n * sk, cin))
    y = rng.standard_normal((batch, m, n, cout))
    w = rng.standard_normal((kh, kw, cin, cout))
    conv = conv2d(ad.constant(x), ad.constant(w), ad.constant(np.zeros(cout)),
                  (sm, sk)).data
    back = transposed_conv2d(
        ad.constant(y), ad.constant(w.transpose(0, 1, 3, 2)),
        ad.constant(np.zeros(cin)), (sm, sk),
    ).data
    # every product |x w y| once: the scale of the rounding on either side
    magnitude = conv2d(ad.constant(np.abs(x)), ad.constant(np.abs(w)),
                       ad.constant(np.zeros(cout)), (sm, sk)).data
    assert conv.shape == y.shape and back.shape == x.shape
    lhs, rhs = np.sum(conv * y), np.sum(x * back)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(magnitude * np.abs(y))


def test_conv_shape_error():
    x = ad.constant(np.zeros((1, 4, 4, 3)))
    w = ad.constant(np.zeros((3, 3, 2, 2)))     # wrong input channels
    with pytest.raises(ShapeError):
        conv2d(x, w, ad.constant(np.zeros(2)), (1, 1))


def test_slice_concat_bands_roundtrip():
    rng = np.random.default_rng(15)
    x = ad.constant(rng.standard_normal((2, 3, 8, 2)))
    lower = slice_bands(x, 0, 4)
    upper = slice_bands(x, 4, 8)
    back = concat_bands(lower, upper)
    np.testing.assert_array_equal(back.data, x.data)


def test_minibatch_stddev_constant_batch_is_zero():
    x = ad.constant(np.ones((4, 2, 3, 2)) * 1.7)
    out = minibatch_stddev(x)
    assert out.shape == (4, 2, 3, 3)
    np.testing.assert_array_equal(out.data[..., -1], np.zeros((4, 2, 3)))


def test_minibatch_stddev_two_sample_hand_case():
    # batch {x, -x} at a single element: mean 0, per-element stddev |x|
    x = ad.constant(np.array([1.0, -1.0]).reshape(2, 1, 1, 1) * 0.7)
    out = minibatch_stddev(x)
    np.testing.assert_allclose(out.data[..., -1], 0.7)


def test_minibatch_stddev_grads():
    rng = np.random.default_rng(16)
    x = leaf(rng, (3, 2, 2, 2))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(minibatch_stddev(x), 2.0)), [x]
    )


@pytest.mark.parametrize("batch", [1, 3])
def test_minibatch_stddev_penalty_gradient_finite_at_zero_spread(batch):
    # batch 1 has zero spread everywhere; at batch 3 one position is constant
    rng = np.random.default_rng(17)
    data = rng.standard_normal((batch, 2, 2, 2))
    data[:, 0, 1, 0] = 0.4
    x = ad.parameter(data)
    weights = rng.standard_normal((batch, 2, 2, 3))
    score = ad.sum_along(ad.mul(minibatch_stddev(x), weights))
    (gx,) = ad.grad(score, [x], create_graph=True)
    (gxx,) = ad.grad(ad.sum_along(ad.power(gx, 2.0)), [x])
    assert np.all(np.isfinite(gx.data)) and np.all(np.isfinite(gxx.data))


def test_second_order_through_inner_gradient():
    # d/da of sum((d sum(a^3)/da)^2) = d/da sum(9 a^4) = 36 a^3
    a = ad.parameter(np.array([0.7, -1.2, 2.0]))
    inner = ad.sum_along(ad.power(a, 3.0))
    (ga,) = ad.grad(inner, [a], create_graph=True)
    outer = ad.sum_along(ad.power(ga, 2.0))
    (gga,) = ad.grad(outer, [a])
    np.testing.assert_allclose(gga.data, 36.0 * a.data ** 3, rtol=1e-12)


def test_grad_of_unreachable_input_is_zero():
    a = ad.parameter(np.ones(3))
    b = ad.parameter(np.ones(3))
    out = ad.sum_along(ad.power(a, 2.0))
    gb = ad.grad(out, [b])[0]
    np.testing.assert_array_equal(gb.data, np.zeros(3))


@pytest.mark.parametrize("create_graph", [False, True])
def test_grad_of_a_subset_is_bitwise_the_full_grad(create_graph):
    rng = np.random.default_rng(12)
    a, b = leaf(rng, (3, 4)), leaf(rng, (4, 5))
    x = ad.constant(rng.standard_normal((2, 3)))

    def out():
        h = leaky_relu(ad.matmul(ad.matmul(x, a), b))
        return ad.add(ad.sum_along(ad.power(h, 2.0)), ad.sum_along(ad.mul(a, a)))

    (alone,) = ad.grad(out(), [a], create_graph=create_graph)
    both = ad.grad(out(), [a, b], create_graph=create_graph)
    assert alone.data.tobytes() == both[0].data.tobytes()
    assert alone.requires_grad == both[0].requires_grad == create_graph


def test_grad_skips_edges_off_the_path_to_the_inputs():
    a = ad.parameter(np.array([1.5, -2.0]))
    b = ad.parameter(np.array([0.5, 3.0]))
    calls = {"a": 0, "b": 0}

    def vjp(name, other):
        def back(g):
            calls[name] += 1
            return ad.mul(g, other)
        return back

    def out():
        prod = ad.Tensor(a.data * b.data, (a, b), (vjp("a", b), vjp("b", a)))
        return ad.sum_along(prod)

    for create_graph in (False, True):
        (ga,) = ad.grad(out(), [a], create_graph=create_graph)
        np.testing.assert_array_equal(ga.data, b.data)
    assert calls == {"a": 2, "b": 0}
    ad.grad(out(), [a, b])
    assert calls == {"a": 3, "b": 1}


def test_no_grad_mode_drops_graph():
    a = ad.parameter(np.ones(3))
    with ad.no_grad():
        out = ad.mul(a, a)
    assert out.parents == ()
    assert not out.requires_grad

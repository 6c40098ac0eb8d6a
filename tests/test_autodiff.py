"""Finite-difference oracles for every autodiff primitive and layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaudio.errors import ShapeError
from octaudio.nn import autodiff as ad
from octaudio.nn.layers import (
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
        lambda: ad.sum_along(ad.scale(ad.neg(ad.power(a, 1.5)), 0.7)), [a]
    )


def test_sqrt_grads():
    rng = np.random.default_rng(3)
    a = ad.parameter(rng.uniform(0.5, 4.0, (5,)))
    assert_grads_match(lambda: ad.sum_along(ad.power(a, 0.5)), [a])


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


def scatter_reference(patches, strides, size):
    """np.add.at over flat patch indices: the index-map scatter that fold
    replaced, kept as its bit-for-bit oracle."""
    batch, mo, no, kh, kw, channels = patches.shape
    (sm, sk), (mp, np_) = strides, size
    i = np.arange(mo)[:, None, None, None] * sm + np.arange(kh)[None, None, :, None]
    j = np.arange(no)[None, :, None, None] * sk + np.arange(kw)[None, None, None, :]
    flat = (i * np_ + j).reshape(-1)
    out = np.zeros((batch, mp * np_, channels))
    np.add.at(out, (slice(None), flat), patches.reshape(batch, -1, channels))
    return out.reshape(batch, mp, np_, channels), flat


def test_unfold_fold_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng, (2, 7, 5, 3))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.unfold(a, (3, 2), (2, 1)), 2.0)), [a]
    )
    b = leaf(rng, (2, 3, 4, 3, 2, 3))
    assert_grads_match(
        lambda: ad.sum_along(ad.power(ad.fold(b, (2, 1), (7, 5)), 2.0)), [b]
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 8), st.integers(1, 4),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
)
def test_unfold_fold_are_adjoint(batch, channels, kh, kw, sm, sk, mo, no,
                                 extra_m, extra_n, seed):
    # any grid whose last partial stride holds no further patch
    mp = (mo - 1) * sm + kh + extra_m % sm
    np_ = (no - 1) * sk + kw + extra_n % sk
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, mp, np_, channels))
    y = rng.standard_normal((batch, mo, no, kh, kw, channels))
    patches = ad.unfold(ad.constant(x), (kh, kw), (sm, sk)).data
    folded = ad.fold(ad.constant(y), (sm, sk), (mp, np_)).data
    assert patches.shape == y.shape and folded.shape == x.shape
    lhs, rhs = np.sum(patches * y), np.sum(x * folded)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), np.sum(np.abs(patches * y)))
    reference, flat = scatter_reference(y, (sm, sk), (mp, np_))
    np.testing.assert_array_equal(folded, reference)
    np.testing.assert_array_equal(
        patches.reshape(batch, -1, channels),
        x.reshape(batch, -1, channels)[:, flat],
    )


def test_fold_rejects_a_grid_it_does_not_tile():
    y = ad.constant(np.zeros((1, 3, 2, 2, 2, 1)))
    with pytest.raises(ShapeError):
        ad.fold(y, (2, 1), (8, 3))       # 8 rows hold 4 stride-2 patches, not 3


def test_slice_pad_concat_grads():
    rng = np.random.default_rng(9)
    a = leaf(rng, (2, 5, 4, 3))

    def fn():
        left = ad.slice_axis(a, 2, 0, 2)
        right = ad.pad_axis(ad.slice_axis(a, 2, 2, 4), 1, 1, 0)
        right = ad.slice_axis(right, 1, 0, 5)
        return ad.sum_along(ad.power(ad.concat([left, right], 2), 2.0))

    assert_grads_match(fn, [a])


def test_leaky_relu_grads_away_from_kink():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((4, 4))
    data[np.abs(data) < 0.05] = 0.1          # keep finite differences clean
    a = ad.parameter(data)
    assert_grads_match(lambda: ad.sum_along(ad.power(ad.leaky_relu(a, 0.2), 2.0)), [a])


def test_leaky_relu_values():
    out = ad.leaky_relu(ad.constant([-1.0, 0.0, 2.0]), 0.2)
    np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])


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


def test_no_grad_mode_drops_graph():
    a = ad.parameter(np.ones(3))
    with ad.no_grad():
        out = ad.mul(a, a)
    assert out.parents == ()
    assert not out.requires_grad

"""Network layers on (batch, blocks, bands, channels) tensors.

Convolutions use SAME padding: with stride s the output length is
ceil(in/s), so strided layers divide an axis exactly and transposed layers
multiply it exactly. A convolution is pad -> strided unfold -> matmul, and a
transposed convolution is its adjoint: matmul -> fold -> crop.
"""

from ..errors import ShapeError
from . import autodiff as ad

LEAKY_SLOPE = 0.2


def _pad_amounts(length, kernel, stride):
    out = -(-length // stride)
    total = max((out - 1) * stride + kernel - length, 0)
    return total // 2, total - total // 2


def conv2d(x, weights, bias, strides):
    """Strided 2-D convolution over the (blocks, bands) axes.

    x: (B, M, N, Cin); weights: (kh, kw, Cin, Cout); bias: (Cout,).
    Returns (B, ceil(M/sm), ceil(N/sk), Cout).
    """
    batch, m, n, cin = x.shape
    kh, kw, wcin, cout = weights.shape
    if wcin != cin:
        raise ShapeError(f"conv2d weights expect {wcin} channels, input has {cin}")
    sm, sk = strides

    if (kh, kw) == (1, 1) and (sm, sk) == (1, 1):
        flat = ad.reshape(x, (batch * m * n, cin))
        out = ad.matmul(flat, ad.reshape(weights, (cin, cout)))
        out = ad.add(out, bias)
        return ad.reshape(out, (batch, m, n, cout))

    h = ad.pad_axis(x, 1, *_pad_amounts(m, kh, sm))
    h = ad.pad_axis(h, 2, *_pad_amounts(n, kw, sk))
    patches = ad.unfold(h, (kh, kw), (sm, sk))            # (B, Mo, No, kh, kw, Cin)
    mo, no = patches.shape[1:3]
    patches = ad.reshape(patches, (batch * mo * no, kh * kw * cin))
    out = ad.matmul(patches, ad.reshape(weights, (kh * kw * cin, cout)))
    out = ad.add(out, bias)
    return ad.reshape(out, (batch, mo, no, cout))


def transposed_conv2d(x, weights, bias, strides):
    """Strided transposed convolution (adjoint of SAME conv2d).

    x: (B, M, N, Cin); weights: (kh, kw, Cin, Cout); bias: (Cout,).
    Returns (B, M*sm, N*sk, Cout).
    """
    batch, m, n, cin = x.shape
    kh, kw, wcin, cout = weights.shape
    if wcin != cin:
        raise ShapeError(
            f"transposed_conv2d weights expect {wcin} channels, input has {cin}"
        )
    sm, sk = strides
    mo, no = m * sm, n * sk
    before_m, after_m = _pad_amounts(mo, kh, sm)
    before_n, after_n = _pad_amounts(no, kw, sk)

    # (kh, kw, Cin, Cout) -> (Cin, kh*kw*Cout) so each source cell emits one
    # (kh, kw, Cout) patch, the layout fold sums into the padded grid
    w2d = ad.reshape(ad.permute(weights, (2, 0, 1, 3)), (cin, kh * kw * cout))
    t = ad.matmul(ad.reshape(x, (batch * m * n, cin)), w2d)
    t = ad.reshape(t, (batch, m, n, kh, kw, cout))
    size = (before_m + mo + after_m, before_n + no + after_n)
    spread = ad.fold(t, (sm, sk), size)
    cropped = ad.slice_axis(spread, 1, before_m, before_m + mo)
    cropped = ad.slice_axis(cropped, 2, before_n, before_n + no)
    return ad.add(cropped, bias)


def dense(x, weights, bias):
    """x: (B, D) @ (D, F) + bias."""
    return ad.add(ad.matmul(x, weights), bias)


def leaky_relu(x, slope=LEAKY_SLOPE):
    return ad.leaky_relu(x, slope)


def slice_bands(x, start, stop):
    """Keep bands [start, stop) of a (B, M, N, C) tensor."""
    if not 0 <= start < stop <= x.shape[2]:
        raise ShapeError(f"band slice [{start}, {stop}) outside 0..{x.shape[2]}")
    return ad.slice_axis(x, 2, start, stop)


def concat_bands(a, b):
    """Concatenate two tensors along the band axis."""
    if a.shape[0] != b.shape[0] or a.shape[1] != b.shape[1] or a.shape[3] != b.shape[3]:
        raise ShapeError(f"cannot concat bands of {a.shape} and {b.shape}")
    return ad.concat([a, b], axis=2)


def minibatch_stddev(x):
    """Append one channel holding the batch-averaged per-element stddev.

    The appended channel is a single scalar broadcast over the tensor, and is
    exactly zero for a batch of identical samples.
    """
    batch = x.shape[0]
    mu = ad.mean(x, axis=0, keepdims=True)
    var = ad.mean(ad.power(ad.sub(x, mu), 2.0), axis=0, keepdims=True)
    stddev = ad.power(var, 0.5)
    pooled = ad.mean(stddev)
    channel = ad.broadcast_to(
        ad.reshape(pooled, (1, 1, 1, 1)), (batch, x.shape[1], x.shape[2], 1)
    )
    return ad.concat([x, channel], axis=3)

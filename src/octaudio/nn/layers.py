"""Network layers on (batch, blocks, bands, channels) tensors.

Convolutions use SAME padding: with stride s the output length is
ceil(in/s), so strided layers divide an axis exactly and transposed layers
multiply it exactly.

Strided layers run in polyphase (sub-pixel) form. The kernel is
zero-padded to a whole number of taps per stride, t = ceil(k/s), and
regrouped by phase: offset d = tap*s + phase. ad.gather and its adjoint
ad.scatter own the layout of the padded grid of s-cells.
- conv2d: gather t taps of whole s-cells (each cell one deep pixel) ->
  ad.affine, the matmul with the bias added in place.
- transposed_conv2d, its adjoint: gather t taps of single pixels ->
  matmul against the tap-reversed kernel, producing all s phases of each
  output cell at once -> scatter the cells onto the cropped output grid ->
  add the bias. A bias added before the scatter would sum its gradient in
  another order.
"""

from ..errors import ShapeError
from . import autodiff as ad

LEAKY_SLOPE = 0.2


def _pad_before(length, kernel, stride):
    """Leading zeros of SAME padding: half the total, rounded down."""
    out = -(-length // stride)
    return max((out - 1) * stride + kernel - length, 0) // 2


def _check_channels(name, weights, x):
    if weights.shape[2] != x.shape[3]:
        raise ShapeError(
            f"{name} weights expect {weights.shape[2]} channels, "
            f"input has {x.shape[3]}"
        )


def _phase_kernel(weights, strides):
    """(kh, kw, Cin, Cout) -> (th, sm, tw, sk, Cin, Cout), zero-padding each
    kernel axis to th*sm and tw*sk offsets."""
    kh, kw, cin, cout = weights.shape
    sm, sk = strides
    th, tw = -(-kh // sm), -(-kw // sk)
    w = ad.pad_axis(weights, 0, 0, th * sm - kh)
    w = ad.pad_axis(w, 1, 0, tw * sk - kw)
    return ad.reshape(w, (th, sm, tw, sk, cin, cout))


def conv2d(x, weights, bias, strides):
    """Strided 2-D convolution over the (blocks, bands) axes.

    x: (B, M, N, Cin); weights: (kh, kw, Cin, Cout); bias: (Cout,).
    Returns (B, ceil(M/sm), ceil(N/sk), Cout).
    """
    _check_channels("conv2d", weights, x)
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    sm, sk = strides

    if (kh, kw) == (1, 1) and (sm, sk) == (1, 1):
        flat = ad.reshape(x, (batch * m * n, cin))
        out = ad.affine(flat, ad.reshape(weights, (cin, cout)), bias)
        return ad.reshape(out, (batch, m, n, cout))

    w = _phase_kernel(weights, strides)
    th, tw = w.shape[0], w.shape[2]
    mo, no = -(-m // sm), -(-n // sk)
    # pad to exactly (mo + th - 1) s-cells: patch i then starts at cell i
    before_m, before_n = _pad_before(m, kh, sm), _pad_before(n, kw, sk)
    pads = (before_m, (mo + th - 1) * sm - m - before_m,
            before_n, (no + tw - 1) * sk - n - before_n)
    patches = ad.gather(x, (th, tw), strides, pads)  # (B, Mo, No, th, tw, sm, sk, Cin)
    patches = ad.reshape(patches, (batch * mo * no, th * tw * sm * sk * cin))
    w = ad.permute(w, (0, 2, 1, 3, 4, 5))                # (th, tw, sm, sk, Cin, Cout)
    out = ad.affine(patches, ad.reshape(w, (th * tw * sm * sk * cin, cout)), bias)
    return ad.reshape(out, (batch, mo, no, cout))


def transposed_conv2d(x, weights, bias, strides):
    """Strided transposed convolution (adjoint of SAME conv2d).

    x: (B, M, N, Cin); weights: (kh, kw, Cin, Cout); bias: (Cout,).
    Returns (B, M*sm, N*sk, Cout).
    """
    _check_channels("transposed_conv2d", weights, x)
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    sm, sk = strides
    w = _phase_kernel(weights, strides)
    th, tw = w.shape[0], w.shape[2]
    mo, no = m * sm, n * sk
    before_m, before_n = _pad_before(mo, kh, sm), _pad_before(no, kw, sk)

    # Output offset u = a*s + r (in the uncropped grid) sums x[a - t] against
    # kernel offset t*s + r. Cells a = first..last cover the SAME window; the
    # stride-1 patch at cell a holds x[a - th + 1 .. a], taps in reverse.
    first_m, last_m = before_m // sm, (before_m + mo - 1) // sm
    first_n, last_n = before_n // sk, (before_n + no - 1) // sk
    cells_m, cells_n = last_m - first_m + 1, last_n - first_n + 1
    pads = (th - 1 - first_m, last_m + 1 - m, tw - 1 - first_n, last_n + 1 - n)
    patches = ad.gather(x, (th, tw), (1, 1), pads)  # (B, Mc, Nc, th, tw, 1, 1, Cin)
    patches = ad.reshape(patches, (batch * cells_m * cells_n, th * tw * cin))
    w = ad.permute(ad.flip(w, (0, 2)), (0, 2, 4, 1, 3, 5))  # (th, tw, Cin, sm, sk, Cout)
    t = ad.matmul(patches, ad.reshape(w, (th * tw * cin, sm * sk * cout)))
    # phase (r, q) of cell (a, b) lands on row a*sm + r, column b*sk + q;
    # rebinding t frees the matmul output before the bias add allocates
    crop = (before_m - first_m * sm, (last_m + 1) * sm - before_m - mo,
            before_n - first_n * sk, (last_n + 1) * sk - before_n - no)
    t = ad.reshape(t, (batch, cells_m, cells_n, 1, 1, sm, sk, cout))
    t = ad.scatter(t, (mo, no), crop)
    return ad.add(t, bias)


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
    exactly zero, with finite gradients (ad.sqrt), for identical samples.
    """
    batch = x.shape[0]
    mu = ad.mean(x, axis=0, keepdims=True)
    var = ad.mean(ad.power(ad.sub(x, mu), 2.0), axis=0, keepdims=True)
    stddev = ad.sqrt(var)
    pooled = ad.mean(stddev)
    channel = ad.broadcast_to(
        ad.reshape(pooled, (1, 1, 1, 1)), (batch, x.shape[1], x.shape[2], 1)
    )
    return ad.concat([x, channel], axis=3)

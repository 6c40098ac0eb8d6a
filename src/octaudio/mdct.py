"""Lapped cosine transform with the Vorbis window.

The forward transform maps a signal of length M*N to an (M, N) amplitude grid
per channel. Band k covers the frequency interval
[fs*k/(2N), fs*(k+1)/(2N)). Half a block of zeros is assumed on both signal
ends; together with a Princen-Bradley window this makes the transform exactly
invertible with M = len/N output blocks, boundary samples included.

Two forward paths are provided: a direct evaluation of the cosine sum (the
reference used by tests) and an O(N log N) path that folds each frame into a
type-IV DCT. The inverse runs the fast path backwards. Every path transforms
all channels at once.

Block ranges: block m reads samples [mN - N/2, mN + 3N/2). The fast forward
of blocks [m0, m1) reads only samples [m0 N - N/2, m1 N + N/2), and is
bitwise those rows of the whole track's. Given block m0 - 1, the inverse of
blocks [m0, m1) writes the samples they finish, [m0 N - N/2, m1 N - N/2)
extended to 0 and T at the track ends; over any split of the blocks into
ranges it writes the bytes of the whole-track inverse.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio_io import AudioBuffer
from .errors import ParseError, ShapeError

TENSOR_MAGIC = b"MDCT"
TENSOR_VERSION = 1
TENSOR_HEADER_BYTES = 24


@dataclass
class MdctTensor:
    """Amplitudes of shape (blocks M, bands N, channels C) plus sample rate."""

    amplitudes: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        if self.amplitudes.ndim != 3:
            raise ShapeError("amplitudes must have shape (blocks, bands, channels)")
        self.sample_rate_hz = int(self.sample_rate_hz)


def channel_sum(x):
    """Sum of (..., C) x over its trailing channel axis, a channel slice at
    a time: the bytes of x.sum(axis=-1) for fewer than 8 channels, and
    divided by C those of x.mean(axis=-1). numpy reduces a short trailing
    axis one pair per inner loop, 6-9x slower. The sum starts from +0.0,
    as numpy's does, so channels that are all -0.0 sum to +0.0."""
    total = np.zeros(x.shape[:-1])
    for c in range(x.shape[-1]):
        total += x[..., c]
    return total


def band_center_hz(sample_rate_hz, band_count, k=None):
    """Center frequency fs*(k + 1/2)/(2N) of band k (all bands if k is None)."""
    if k is None:
        k = np.arange(band_count)
    return sample_rate_hz * (np.asarray(k) + 0.5) / (2.0 * band_count)


def vorbis_window(band_count):
    """Window w_n = sin(pi/2 * sin^2(pi/(2N) * (n + 1/2))) for n = 0..2N-1."""
    if band_count < 2:
        raise ValueError("band_count must be at least 2")
    n = np.arange(2 * band_count)
    inner = np.sin(np.pi / (2.0 * band_count) * (n + 0.5))
    return np.sin(0.5 * np.pi * inner * inner)


@functools.lru_cache(maxsize=8)
def _cos_matrix(band_count):
    """Cosine kernel cos[pi/N (n + 1/2 + N/2)(k + 1/2)], shape (2N, N).

    Cached and shared by every caller, so it is returned read-only.
    """
    n = np.arange(2 * band_count)[:, np.newaxis]
    k = np.arange(band_count)[np.newaxis, :]
    mat = np.cos(np.pi / band_count * (n + 0.5 + band_count / 2.0) * (k + 0.5))
    mat.flags.writeable = False
    return mat


def _validate_forward(buf, band_count):
    if band_count < 8 or band_count & (band_count - 1):
        raise ShapeError("band_count must be a power of two >= 8")
    if len(buf) == 0 or len(buf) % band_count != 0:
        raise ShapeError(
            f"signal length {len(buf)} is not a positive multiple of {band_count}"
        )
    return len(buf) // band_count


def _frames(samples, band_count, m0, m1):
    """Windowless frames (C, m1 - m0, 2N) of blocks [m0, m1) at hop N over
    the (T, C) signal, zeros outside it: one strided view of one padded
    copy of samples [m0 N - N/2, m1 N + N/2) for all channels."""
    half = band_count // 2
    lo, hi = m0 * band_count - half, m1 * band_count + half
    padded = np.zeros((samples.shape[1], hi - lo))
    first, stop = max(lo, 0), min(hi, len(samples))
    padded[:, first - lo:stop - lo] = samples[first:stop].T
    view = np.lib.stride_tricks.sliding_window_view(padded, 2 * band_count, axis=1)
    return view[:, ::band_count]


def mdct_forward_naive(buf, band_count):
    """Direct evaluation of the cosine sum of the transform. O(M * N^2)."""
    m = _validate_forward(buf, band_count)
    frames = _frames(buf.samples, band_count, 0, m) * vorbis_window(band_count)
    out = frames @ _cos_matrix(band_count)
    return MdctTensor(np.moveaxis(out, 0, 2), buf.sample_rate_hz)


def _fold(frames):
    """Fold windowed (..., 2N) frames to (..., N): (-c_r - d, a - b_r) for
    quarters a, b, c, d, where _r reverses a quarter."""
    half = frames.shape[-1] // 4
    a, b, c, d = (frames[..., q * half:(q + 1) * half] for q in range(4))
    folded = np.empty(frames.shape[:-1] + (2 * half,))
    np.subtract(-c[..., ::-1], d, out=folded[..., :half])
    np.subtract(a, b[..., ::-1], out=folded[..., half:])
    return folded


def mdct_forward_fast(buf, band_count, m0=0, m1=None):
    """Blocks [m0, m1) of the transform (to the end when m1 is None) via
    frame folding and a type-IV DCT. O(K * N log N) for K blocks."""
    num_blocks = _validate_forward(buf, band_count)
    m1 = num_blocks if m1 is None else m1
    if not 0 <= m0 < m1 <= num_blocks:
        raise ShapeError(f"blocks [{m0}, {m1}) are not within [0, {num_blocks})")
    folded = _fold(_frames(buf.samples, band_count, m0, m1)
                   * vorbis_window(band_count))
    # batch-parallel DCT; each 1-D transform is bitwise deterministic
    out = scipy.fft.dct(folded, type=4, axis=-1, workers=-1)
    out *= 0.5
    return MdctTensor(np.ascontiguousarray(np.moveaxis(out, 0, 2)),
                      buf.sample_rate_hz)


def mdct_inverse_into(out, amplitudes, m0=0, previous=None):
    """Write into out, the (T, C) track, the samples that the (K, N, C)
    amplitudes of blocks [m0, m0 + K) finish given previous, block m0 - 1's
    (N, C) amplitudes (None for m0 = 0).

    DCT-IV is its own inverse up to 2/N, so DCT-IV / N gives back the folded
    frames. The fold's adjoint (a, b, c, d) = (hi, -hi_r, -lo_r, -lo) is
    windowed and overlap-added, straight into out: block m's first halves
    onto samples [mN - N/2, mN + N/2), its second halves onto the next N.
    The track's first and last N/2 samples lie under one window only (their
    aliasing partner is in the zero padding), so they are rescaled by 1/w^2.
    """
    band_count, half = amplitudes.shape[1], amplitudes.shape[1] // 2
    num_blocks, m1 = len(out) // band_count, m0 + len(amplitudes)
    if not 0 <= m0 < m1 <= num_blocks or (previous is None) != (m0 == 0):
        raise ShapeError(f"blocks [{m0}, {m1}) do not lap into {num_blocks} blocks")
    if m0:
        amplitudes = np.concatenate([previous[np.newaxis], amplitudes])
    if not np.all(np.isfinite(amplitudes)):
        raise ValueError("tensor amplitudes must be finite")
    folded = scipy.fft.dct(np.moveaxis(amplitudes, 2, 0), type=4,
                           axis=-1, workers=-1)
    folded /= band_count
    lo, hi = folded[..., :half], folded[..., half:]
    w = np.split(vorbis_window(band_count), 4)   # per quarter

    # the samples that two of the K' = len(amplitudes) blocks overlap,
    # [(m1 - K' + 1) N - N/2, m1 N - N/2), as a (C, K' - 1, N) view of out:
    # block j's first half minus block j - 1's second half
    start = (m1 - len(amplitudes) + 1) * band_count - half
    laps = np.moveaxis(out[start:m1 * band_count - half].reshape(
        len(amplitudes) - 1, band_count, out.shape[1]), 2, 0)
    np.multiply(hi[:, 1:], w[0], out=laps[..., :half])
    np.multiply(hi[:, 1:, ::-1], -w[1], out=laps[..., half:])
    laps[..., :half] -= lo[:, :-1, ::-1] * w[2]
    laps[..., half:] -= lo[:, :-1] * w[3]
    if m0 == 0:     # block 0's second quarter alone
        out[:half] = (hi[:, 0, ::-1] * -w[1] / (w[1] * w[1])).T
    if m1 == num_blocks:    # block M - 1's third quarter alone, 0.0 - x
        tail = np.zeros((amplitudes.shape[2], half))    # (a zero stays +0.0)
        tail -= lo[:, -1, ::-1] * w[2]
        tail /= w[2] * w[2]
        out[m1 * band_count - half:m1 * band_count] = tail.T


def mdct_inverse(tensor):
    """Overlap-add synthesis of the whole track, the exact inverse of the
    forward transform: mdct_inverse_into of every block."""
    blocks, bands, channels = tensor.amplitudes.shape
    out = np.empty((blocks * bands, channels))
    mdct_inverse_into(out, tensor.amplitudes)
    return AudioBuffer(out, tensor.sample_rate_hz)


def tensor_header(num_blocks, band_count, channels, sample_rate_hz):
    """Magic, version, M, N, C and rate (u32 LE): the first
    TENSOR_HEADER_BYTES of a tensor file. The float64 data follows."""
    return TENSOR_MAGIC + struct.pack("<IIIII", TENSOR_VERSION, num_blocks,
                                      band_count, channels, sample_rate_hz)


def write_amplitudes(fh, amplitudes):
    """Append (K, N, C) amplitudes to an open tensor file as float64 LE,
    from the array itself: no bytes copy of a contiguous native array."""
    fh.write(np.ascontiguousarray(amplitudes, dtype="<f8"))


def read_amplitudes(fh, first_block, num_blocks, band_count, channels):
    """Blocks [first_block, first_block + num_blocks) of an open tensor
    file of N bands and C channels, as (K, N, C) amplitudes."""
    block_bytes = 8 * band_count * channels
    fh.seek(TENSOR_HEADER_BYTES + first_block * block_bytes)
    return np.frombuffer(fh.read(num_blocks * block_bytes), dtype="<f8").reshape(
        num_blocks, band_count, channels)


def save_tensor(tensor, path):
    """Serialize as tensor_header plus the float64 LE amplitudes."""
    with open(path, "wb") as fh:
        fh.write(tensor_header(*tensor.amplitudes.shape, tensor.sample_rate_hz))
        write_amplitudes(fh, tensor.amplitudes)


def load_tensor(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < TENSOR_HEADER_BYTES or blob[:4] != TENSOR_MAGIC:
        raise ParseError(f"{path}: not an MDCT tensor file")
    version, m, n, c, rate = struct.unpack_from("<IIIII", blob, 4)
    if version != TENSOR_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    expected = TENSOR_HEADER_BYTES + 8 * m * n * c
    if len(blob) != expected:
        raise ParseError(f"{path}: size {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=TENSOR_HEADER_BYTES)
    data = data.reshape(m, n, c)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite amplitudes")
    return MdctTensor(data.copy(), rate)

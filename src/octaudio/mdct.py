"""Lapped cosine transform with the Vorbis window.

The forward transform maps a signal of length M*N to an (M, N) amplitude grid
per channel. Band k covers the frequency interval
[fs*k/(2N), fs*(k+1)/(2N)). Half a block of zeros is assumed on both signal
ends; together with a Princen-Bradley window this makes the transform exactly
invertible with M = len/N output blocks, boundary samples included.

Two forward paths are provided: a direct evaluation of the cosine sum (the
reference used by tests) and an O(N log N) path that folds each frame into a
type-IV DCT.
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


@dataclass
class MdctTensor:
    """Amplitudes of shape (blocks M, bands N, channels C) plus sample rate."""

    amplitudes: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if amps.ndim == 2:
            amps = amps[:, :, np.newaxis]
        if amps.ndim != 3:
            raise ShapeError("amplitudes must have shape (blocks, bands[, channels])")
        self.amplitudes = amps
        self.sample_rate_hz = int(self.sample_rate_hz)

    @property
    def num_blocks(self):
        return self.amplitudes.shape[0]

    @property
    def band_count(self):
        return self.amplitudes.shape[1]

    @property
    def channels(self):
        return self.amplitudes.shape[2]

    def band_width_hz(self):
        return self.sample_rate_hz / (2.0 * self.band_count)


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


def _check_window(window, band_count):
    if window is None:
        return vorbis_window(band_count)
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (2 * band_count,):
        raise ShapeError(
            f"window length {window.shape} does not match 2N = {2 * band_count}"
        )
    return window


def _frames(samples_1d, band_count):
    """Windowless 2N frames at hop N over the half-block zero-padded signal."""
    half = band_count // 2
    padded = np.concatenate(
        [np.zeros(half), samples_1d, np.zeros(half)]
    )
    view = np.lib.stride_tricks.sliding_window_view(padded, 2 * band_count)
    return view[::band_count]


def _validate_forward(buf, band_count):
    if band_count < 8 or band_count & (band_count - 1):
        raise ShapeError("band_count must be a power of two >= 8")
    if len(buf) == 0 or len(buf) % band_count != 0:
        raise ShapeError(
            f"signal length {len(buf)} is not a positive multiple of {band_count}"
        )


def mdct_forward_naive(buf, band_count, window=None):
    """Direct evaluation of the cosine sum of the transform. O(M * N^2)."""
    _validate_forward(buf, band_count)
    window = _check_window(window, band_count)
    cosmat = _cos_matrix(band_count)
    num_blocks = len(buf) // band_count
    out = np.empty((num_blocks, band_count, buf.channels))
    for c in range(buf.channels):
        frames = _frames(buf.samples[:, c], band_count) * window
        out[:, :, c] = frames @ cosmat
    return MdctTensor(out, buf.sample_rate_hz)


def mdct_forward_fast(buf, band_count, window=None):
    """Same transform via frame folding and a type-IV DCT. O(M * N log N)."""
    _validate_forward(buf, band_count)
    window = _check_window(window, band_count)
    num_blocks = len(buf) // band_count
    half = band_count // 2
    out = np.empty((num_blocks, band_count, buf.channels))
    folded = np.empty((num_blocks, band_count))
    for c in range(buf.channels):
        frames = _frames(buf.samples[:, c], band_count) * window
        a = frames[:, :half]
        b = frames[:, half:band_count]
        cc = frames[:, band_count:band_count + half]
        d = frames[:, band_count + half:]
        np.subtract(-cc[:, ::-1], d, out=folded[:, :half])
        np.subtract(a, b[:, ::-1], out=folded[:, half:])
        # batch-parallel DCT; each 1-D transform is bitwise deterministic
        out[:, :, c] = 0.5 * scipy.fft.dct(folded, type=4, axis=1, workers=-1)
    return MdctTensor(out, buf.sample_rate_hz)


def mdct_inverse(tensor, window=None):
    """Overlap-add synthesis; exact inverse of the forward transform.

    Interior samples are covered by two windows whose squares sum to one.
    The first and last N/2 samples are covered once (their aliasing partner
    lies in the zero padding), so they are rescaled by 1/w^2.
    """
    band_count = tensor.band_count
    window = _check_window(window, band_count)
    if not np.all(np.isfinite(tensor.amplitudes)):
        raise ValueError("tensor amplitudes must be finite")
    cosmat = _cos_matrix(band_count)
    num_blocks = tensor.num_blocks
    half = band_count // 2
    total = num_blocks * band_count
    wsq = window * window

    out = np.empty((total, tensor.channels))
    for c in range(tensor.channels):
        frames = (2.0 / band_count) * (tensor.amplitudes[:, :, c] @ cosmat.T)
        frames *= window
        acc = np.zeros(total + band_count)
        for m in range(num_blocks):
            acc[m * band_count:(m + 2) * band_count] += frames[m]
        y = acc[half:half + total]
        y[:half] /= wsq[half:band_count]
        y[-half:] /= wsq[band_count:band_count + half]
        out[:, c] = y
    return AudioBuffer(out, tensor.sample_rate_hz)


def save_tensor(tensor, path):
    """Serialize as magic, version, M, N, C, rate (u32 LE) + float64 data."""
    header = TENSOR_MAGIC + struct.pack(
        "<IIIII",
        TENSOR_VERSION,
        tensor.num_blocks,
        tensor.band_count,
        tensor.channels,
        tensor.sample_rate_hz,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(tensor.amplitudes, dtype="<f8").tobytes())


def load_tensor(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24 or blob[:4] != TENSOR_MAGIC:
        raise ParseError(f"{path}: not an MDCT tensor file")
    version, m, n, c, rate = struct.unpack_from("<IIIII", blob, 4)
    if version != TENSOR_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    expected = 24 + 8 * m * n * c
    if len(blob) != expected:
        raise ParseError(f"{path}: size {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=24).reshape(m, n, c)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite amplitudes")
    return MdctTensor(data.copy(), rate)

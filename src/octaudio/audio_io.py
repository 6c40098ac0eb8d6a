"""WAV ingestion/emission and band-limited resampling.

Audio is held as float64 in [-1, 1]. Sixteen-bit samples are normalized with
the asymmetric divisor 32768, and writes clamp to [-1, 1 - 2^-15] so a
write/read round trip never moves a sample by more than one quantization step.
"""

import struct
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import IoError, ParseError, UnsupportedFormat

INT16_FULL_SCALE = 32768.0
# highest rate whose 16-bit stereo byte rate (4 bytes per frame) fits the
# u32 field of a WAV header
MAX_SAMPLE_RATE_HZ = (2 ** 32 - 1) // 4

# Polyphase anti-alias filter: taps per branch and Kaiser shape parameter.
RESAMPLE_TAPS_PER_BRANCH = 64
RESAMPLE_KAISER_BETA = 8.0
# The Kaiser transition band is a few hundred Hz wide at these lengths, so the
# cutoff sits at 90% of the target Nyquist to keep the whole fold region inside
# the stopband.
RESAMPLE_CUTOFF_SCALE = 0.9

# frames converted to int16 per write in write_wav (1 MB of float64 stereo)
WRITE_CHUNK_FRAMES = 65536


@dataclass
class AudioBuffer:
    """A multichannel sampled signal.

    samples has shape (num_samples, channels) with float64 values in [-1, 1];
    sample_rate_hz is a positive integer.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[:, np.newaxis]
        if samples.ndim != 2:
            raise ValueError("samples must be 1-D or (num_samples, channels)")
        self.samples = samples
        if int(self.sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.sample_rate_hz = int(self.sample_rate_hz)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def channels(self):
        return self.samples.shape[1]


def read_wav(path):
    """Read a RIFF/WAVE file holding 16-bit PCM or 32-bit float samples.

    Unknown chunks are skipped. Returns an AudioBuffer with int16 samples
    divided by 32768 and float samples taken as-is.

    Raises ParseError for malformed containers or non-finite float samples,
    UnsupportedFormat for other codecs/bit-depths/channel counts, IoError if
    the file cannot be read.
    """
    try:
        with open(path, "rb") as fh:
            # chunk bodies are views into the one read buffer, not copies
            blob = memoryview(fh.read())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ParseError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = bytes(blob[pos:pos + 4])
        (chunk_size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8:pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise ParseError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise ParseError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        # chunks are word-aligned; odd sizes carry a pad byte
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise ParseError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {channels} channels not supported")
    if sample_rate <= 0:
        raise ParseError(f"{path}: invalid sample rate {sample_rate}")

    if audio_format == 1 and bits == 16:
        dtype, scale = np.dtype("<i2"), 1.0 / INT16_FULL_SCALE
    elif audio_format == 3 and bits == 32:
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise UnsupportedFormat(
            f"{path}: format {audio_format} at {bits} bits not supported"
        )

    frame_size = channels * dtype.itemsize
    if block_align not in (0, frame_size):
        raise ParseError(f"{path}: block align {block_align} != {frame_size}")
    if len(data) % frame_size != 0:
        raise ParseError(f"{path}: data chunk is not a whole number of frames")

    flat = np.frombuffer(data, dtype=dtype).astype(np.float64)
    flat *= scale
    if dtype.kind == "f" and not np.all(np.isfinite(flat)):
        raise ParseError(f"{path}: non-finite float samples")
    return AudioBuffer(flat.reshape(-1, channels), sample_rate)


def write_wav(buf, path):
    """Write an AudioBuffer as 16-bit PCM, clamping to [-1, 1 - 2^-15].

    Samples are converted WRITE_CHUNK_FRAMES frames at a time, so the
    writer's own memory does not grow with the signal. Non-finite samples
    raise ValueError before the file is opened, so nothing is written.
    """
    samples = buf.samples
    starts = range(0, len(samples), WRITE_CHUNK_FRAMES)
    if not all(np.isfinite(samples[i:i + WRITE_CHUNK_FRAMES]).all()
               for i in starts):
        raise ValueError("cannot write non-finite samples")

    channels = buf.channels
    byte_rate = buf.sample_rate_hz * channels * 2
    data_size = samples.size * 2
    header = b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, channels, buf.sample_rate_hz, byte_rate, channels * 2, 16
    )
    header += b"data" + struct.pack("<I", data_size)
    # C-ordered, so each chunk's int16 copy is in frame order whatever the
    # layout of samples
    scratch = np.empty((min(len(samples), WRITE_CHUNK_FRAMES), channels))
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            for i in starts:
                block = samples[i:i + WRITE_CHUNK_FRAMES]
                chunk = np.clip(block, -1.0, 1.0 - 2.0 ** -15,
                                out=scratch[:len(block)])
                chunk *= INT16_FULL_SCALE
                fh.write(np.round(chunk, out=chunk).astype("<i2"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _design_resample_filter(up, down):
    length = RESAMPLE_TAPS_PER_BRANCH * up + 1
    m = np.arange(length) - (length - 1) / 2
    cutoff = RESAMPLE_CUTOFF_SCALE / max(up, down)
    return cutoff * np.sinc(cutoff * m) * np.kaiser(length, RESAMPLE_KAISER_BETA)


def resample(buf, target_rate_hz):
    """Resample with a windowed-sinc polyphase filter.

    Output length is floor(len * target / source). Equal rates return an
    exact copy.
    """
    target_rate_hz = int(target_rate_hz)
    if target_rate_hz <= 0:
        raise ValueError("target_rate_hz must be positive")
    if target_rate_hz == buf.sample_rate_hz:
        return AudioBuffer(buf.samples.copy(), buf.sample_rate_hz)

    # scipy.signal takes about a second to import, so only a resample pays it
    from scipy.signal import resample_poly

    g = gcd(buf.sample_rate_hz, target_rate_hz)
    up = target_rate_hz // g
    down = buf.sample_rate_hz // g
    h = _design_resample_filter(up, down)
    out = resample_poly(buf.samples, up, down, axis=0, window=h)
    n_out = len(buf) * target_rate_hz // buf.sample_rate_hz
    return AudioBuffer(out[:n_out], target_rate_hz)

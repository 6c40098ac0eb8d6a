import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaudio.audio_io import (
    AudioBuffer,
    read_wav,
    resample,
    slice_segments,
    write_wav,
)
from octaudio.errors import ParseError, UnsupportedFormat


def make_wav_bytes(int16_frames, sample_rate=44100, channels=1,
                   audio_format=1, bits=16, extra_chunk=None, data_override=None):
    """Hand-rolled RIFF container for parser tests."""
    if data_override is None:
        data = np.asarray(int16_frames, dtype="<i2").tobytes()
    else:
        data = data_override
    frame = channels * bits // 8
    fmt = struct.pack(
        "<IHHIIHH", 16, audio_format, channels, sample_rate,
        sample_rate * frame, frame, bits,
    )
    chunks = b"fmt " + fmt
    if extra_chunk is not None:
        chunks += extra_chunk
    chunks += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_read_minimal_pcm16(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(make_wav_bytes([0, 16384, -16384, 32767]))
    buf = read_wav(path)
    assert buf.sample_rate_hz == 44100
    assert buf.channels == 1
    np.testing.assert_allclose(
        buf.samples[:, 0], [0.0, 0.5, -0.5, 32767 / 32768], atol=0
    )


def test_read_skips_unknown_chunks(tmp_path):
    # odd-sized unknown chunk exercises the word-alignment pad byte
    extra = b"LIST" + struct.pack("<I", 3) + b"abc\x00"
    path = tmp_path / "t.wav"
    path.write_bytes(make_wav_bytes([100, -100], extra_chunk=extra))
    buf = read_wav(path)
    assert len(buf) == 2


def test_read_float32(tmp_path):
    data = np.array([0.25, -0.75], dtype="<f4").tobytes()
    path = tmp_path / "t.wav"
    path.write_bytes(
        make_wav_bytes(None, audio_format=3, bits=32, data_override=data)
    )
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples[:, 0], [0.25, -0.75])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_float32_non_finite_is_parse_error(tmp_path, bad):
    data = np.array([0.25, bad, -0.75], dtype="<f4").tobytes()
    path = tmp_path / "t.wav"
    path.write_bytes(
        make_wav_bytes(None, audio_format=3, bits=32, data_override=data)
    )
    with pytest.raises(ParseError):
        read_wav(path)


def test_read_odd_data_chunk_is_parse_error(tmp_path):
    # five bytes of stereo int16 data: not a whole number of frames
    blob = make_wav_bytes(None, channels=2, data_override=b"\x01\x02\x03\x04\x05")
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(ParseError):
        read_wav(path)


def test_read_24bit_unsupported(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(
        make_wav_bytes(None, bits=24, data_override=b"\x00\x00\x00")
    )
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_read_garbage_is_parse_error(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(ParseError):
        read_wav(path)


def test_write_zero_roundtrip(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(AudioBuffer(np.zeros(1), 22016), path)
    back = read_wav(path)
    assert back.sample_rate_hz == 22016
    assert back.samples[0, 0] == 0.0


def test_write_clamps_out_of_range(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(AudioBuffer(np.array([2.0]), 44100), path)
    back = read_wav(path)
    assert back.samples[0, 0] == 1.0 - 2.0 ** -15


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_write_read_roundtrip_error_bound(seed):
    import os
    import tempfile

    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, size=(64, 2))
    path = tempfile.mktemp(suffix=".wav")
    try:
        write_wav(AudioBuffer(samples, 8000), path)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - np.clip(samples, -1, 1 - 2 ** -15))) <= 2 ** -15
    finally:
        os.unlink(path)


def test_resample_identity():
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-1, 1, 1000), 22016)
    out = resample(buf, 22016)
    assert out is not buf
    np.testing.assert_array_equal(out.samples, buf.samples)


def test_resample_length_and_peak_frequency():
    fs, fd = 44100, 22016
    t = np.arange(fs) / fs
    buf = AudioBuffer(0.7 * np.sin(2 * np.pi * 440 * t), fs)
    out = resample(buf, fd)
    assert len(out) == fs * fd // fs == 22016
    spectrum = np.abs(np.fft.rfft(out.samples[:, 0] * np.hanning(len(out))))
    peak_hz = np.argmax(spectrum) * fd / len(out)
    bin_hz = fd / len(out)
    assert abs(peak_hz - 440.0) <= bin_hz


def test_resample_alias_rejection_at_least_40db():
    fs, fd = 44100, 22016
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(fs)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(fs, 1 / fs)
    low = np.fft.irfft(np.where(freqs < fd / 2, spectrum, 0), fs)
    high = np.fft.irfft(np.where(freqs >= fd / 2, spectrum, 0), fs)
    passband = resample(AudioBuffer(low, fs), fd)
    folded = resample(AudioBuffer(high, fs), fd)
    attenuation_db = 10 * np.log10(
        np.sum(passband.samples ** 2) / np.sum(folded.samples ** 2)
    )
    assert attenuation_db >= 40.0


def test_resample_stereo_shape():
    buf = AudioBuffer(np.zeros((4410, 2)), 44100)
    out = resample(buf, 22016)
    assert out.samples.shape == (4410 * 22016 // 44100, 2)


def test_slice_segments_exact():
    buf = AudioBuffer(np.arange(10, dtype=float) / 10, 100)
    segments = slice_segments(buf, 4, 4)
    assert len(segments) == 2
    np.testing.assert_array_equal(segments[0].samples[:, 0], buf.samples[0:4, 0])
    np.testing.assert_array_equal(segments[1].samples[:, 0], buf.samples[4:8, 0])


def test_slice_segments_overlapping():
    buf = AudioBuffer(np.zeros(10), 100)
    assert len(slice_segments(buf, 4, 2)) == 4


def test_slice_segments_degenerate_empty():
    buf = AudioBuffer(np.zeros(3), 100)
    assert slice_segments(buf, 4, 4) == []


def test_slice_segment_lengths_property():
    rng = np.random.default_rng(3)
    buf = AudioBuffer(rng.uniform(-1, 1, 137), 100)
    for seg in slice_segments(buf, 16, 7):
        assert len(seg) == 16


def test_channel_length_invariant():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((4, 2, 2)), 100)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(4), 0)

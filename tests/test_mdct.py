import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octaudio.audio_io import AudioBuffer
from octaudio.errors import ParseError, ShapeError
from octaudio.mdct import (
    MdctTensor,
    band_center_hz,
    channel_sum,
    load_tensor,
    mdct_forward_fast,
    mdct_forward_naive,
    mdct_inverse,
    mdct_inverse_into,
    save_tensor,
    vorbis_window,
)


def hand_window_n2():
    # direct evaluation of w_n = sin(pi/2 sin^2(pi/(2N)(n+1/2))) at N = 2
    out = []
    for n in range(4):
        inner = np.sin(np.pi / 4.0 * (n + 0.5))
        out.append(np.sin(np.pi / 2.0 * inner * inner))
    return np.array(out)


def test_vorbis_window_matches_hand_evaluation():
    np.testing.assert_allclose(vorbis_window(2), hand_window_n2(), atol=1e-15)


@pytest.mark.parametrize("n", [8, 16, 64, 128, 512, 1024])
def test_window_identities(n):
    w = vorbis_window(n)
    assert len(w) == 2 * n
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)                 # symmetry
    np.testing.assert_allclose(w[:n] ** 2 + w[n:] ** 2, 1.0, atol=1e-12)  # Princen-Bradley


def test_zero_signal_zero_tensor():
    buf = AudioBuffer(np.zeros(256), 22016)
    tensor = mdct_forward_naive(buf, 32)
    assert tensor.amplitudes.shape == (8, 32, 1)
    assert np.all(tensor.amplitudes == 0)


def test_forward_linearity():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 512)
    y = rng.uniform(-1, 1, 512)
    a, b = 1.7, -0.4
    fs = 22016
    t_mix = mdct_forward_naive(AudioBuffer(a * x + b * y, fs), 64)
    t_x = mdct_forward_naive(AudioBuffer(x, fs), 64)
    t_y = mdct_forward_naive(AudioBuffer(y, fs), 64)
    combined = a * t_x.amplitudes + b * t_y.amplitudes
    scale = np.max(np.abs(combined))
    assert np.max(np.abs(t_mix.amplitudes - combined)) <= 1e-12 * scale


def test_band_energy_concentration_for_band_center_tone():
    # fs = 22016, N = 128: band width exactly 86 Hz; band 5 = [430, 516) Hz
    fs, n = 22016, 128
    t = np.arange(fs) / fs
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    tone = tone[: (len(tone) // n) * n]
    tensor = mdct_forward_naive(AudioBuffer(tone, fs), n)
    energy = (tensor.amplitudes[:, :, 0] ** 2).sum(axis=0)
    assert fs / (2 * n) == 86.0
    assert energy[4:7].sum() >= 0.9 * energy.sum()


@pytest.mark.parametrize("n", [8, 32, 128, 512])
def test_perfect_reconstruction(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, 8 * n)
    buf = AudioBuffer(x, 22016)
    back = mdct_inverse(mdct_forward_naive(buf, n))
    assert np.max(np.abs(back.samples[:, 0] - x)) <= 1e-10


def test_perfect_reconstruction_square_wave():
    fs, n = 22016, 128
    x = np.sign(np.sin(2 * np.pi * 440 * np.arange(1024) / fs))
    back = mdct_inverse(mdct_forward_naive(AudioBuffer(x, fs), n))
    assert np.max(np.abs(back.samples[:, 0] - x)) <= 1e-10


def test_roundtrip_preserves_energy():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 1024)
    back = mdct_inverse(mdct_forward_fast(AudioBuffer(x, 22016), 128))
    assert abs(np.sum(back.samples ** 2) - np.sum(x ** 2)) <= 1e-9 * np.sum(x ** 2)


def test_zero_tensor_zero_signal():
    tensor = MdctTensor(np.zeros((4, 16, 1)), 22016)
    buf = mdct_inverse(tensor)
    assert np.all(buf.samples == 0)
    assert len(buf) == 64


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([8, 64, 256]))
def test_fast_equals_naive(seed, n):
    rng = np.random.default_rng(seed)
    buf = AudioBuffer(rng.uniform(-1, 1, 32 * n), 22016)
    fast = mdct_forward_fast(buf, n)
    naive = mdct_forward_naive(buf, n)
    assert np.max(np.abs(fast.amplitudes - naive.amplitudes)) <= 1e-9


def test_fast_equals_naive_impulse():
    x = np.zeros(256)
    x[0] = 1.0
    buf = AudioBuffer(x, 22016)
    fast = mdct_forward_fast(buf, 32)
    naive = mdct_forward_naive(buf, 32)
    assert np.max(np.abs(fast.amplitudes - naive.amplitudes)) <= 1e-9


def test_stereo_roundtrip():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, (512, 2))
    buf = AudioBuffer(x, 44100)
    tensor = mdct_forward_fast(buf, 64)
    assert tensor.amplitudes.shape[2] == 2
    back = mdct_inverse(tensor)
    assert np.max(np.abs(back.samples - x)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.sampled_from([8, 64, 256]),
       st.integers(1, 12))
def test_forward_of_inverse_is_identity(seed, channels, n, blocks):
    rng = np.random.default_rng(seed)
    tensor = MdctTensor(rng.standard_normal((blocks, n, channels)), 22016)
    back = mdct_forward_fast(mdct_inverse(tensor), n)
    assert np.max(np.abs(back.amplitudes - tensor.amplitudes)) <= 1e-12


def cosine_sum_synthesis(amplitudes, n):
    """The inverse as a direct cosine sum and a per-block overlap-add loop."""
    k = np.arange(n)
    t = np.arange(2 * n)[:, np.newaxis]
    kernel = np.cos(np.pi / n * (t + 0.5 + n / 2.0) * (k + 0.5))
    window = vorbis_window(n)
    blocks = amplitudes.shape[0]
    acc = np.zeros(((blocks + 1) * n, amplitudes.shape[2]))
    for m in range(blocks):
        acc[m * n:(m + 2) * n] += window[:, np.newaxis] * (
            (2.0 / n) * kernel @ amplitudes[m])
    y = acc[n // 2:n // 2 + blocks * n]
    y[:n // 2] /= window[n // 2:n, np.newaxis] ** 2
    y[-(n // 2):] /= window[n:n + n // 2, np.newaxis] ** 2
    return y


@pytest.mark.parametrize("n", [8, 64, 512])
def test_inverse_matches_cosine_sum_synthesis(n):
    rng = np.random.default_rng(n)
    amplitudes = rng.standard_normal((7, n, 2))
    fast = mdct_inverse(MdctTensor(amplitudes, 22016)).samples
    reference = cosine_sum_synthesis(amplitudes, n)
    # the cosine sum's own rounding grows with N (about 4e-13 at N = 1024)
    assert np.max(np.abs(fast - reference)) <= 1e-11 * np.max(np.abs(reference))


@pytest.mark.parametrize("n", [8, 128, 1024])
def test_channels_transform_independently_bit_for_bit(n):
    rng = np.random.default_rng(n)
    stereo = AudioBuffer(rng.uniform(-1, 1, (5 * n, 2)), 22016)
    tensor = mdct_forward_fast(stereo, n)
    back = mdct_inverse(tensor)
    for c in range(2):
        mono = AudioBuffer(stereo.samples[:, c], 22016)
        np.testing.assert_array_equal(
            tensor.amplitudes[:, :, c], mdct_forward_fast(mono, n).amplitudes[:, :, 0])
        with pytest.raises(ShapeError):     # amplitudes are (M, N, C)
            MdctTensor(tensor.amplitudes[:, :, c], 22016)
        mono_tensor = MdctTensor(tensor.amplitudes[:, :, c:c + 1], 22016)
        np.testing.assert_array_equal(
            back.samples[:, c], mdct_inverse(mono_tensor).samples[:, 0])


BLOCK_RANGE_BANDS = [8, 16, 32, 64, 128, 256]


@pytest.mark.deep
@settings(deadline=None)
@given(data=st.data(), n=st.sampled_from(BLOCK_RANGE_BANDS),
       channels=st.integers(1, 2), blocks=st.integers(1, 12))
def test_forward_of_a_block_range_is_those_rows_of_the_whole(data, n, channels,
                                                             blocks):
    # the drawn range, the ranges from it to either track end and its first
    # block; samples outside what a range reads are NaN
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    samples = rng.uniform(-1, 1, (blocks * n, channels))
    whole = mdct_forward_fast(AudioBuffer(samples, 22016), n).amplitudes
    m0 = data.draw(st.integers(0, blocks - 1))
    m1 = data.draw(st.integers(m0 + 1, blocks))
    for first, stop in [(m0, m1), (0, m1), (m0, blocks), (m0, m0 + 1)]:
        poisoned = np.full_like(samples, np.nan)
        lo, hi = max(first * n - n // 2, 0), stop * n + n // 2
        poisoned[lo:hi] = samples[lo:hi]
        part = mdct_forward_fast(AudioBuffer(poisoned, 22016), n, first, stop)
        assert part.amplitudes.tobytes() == whole[first:stop].tobytes()


@pytest.mark.deep
@settings(deadline=None)
@given(data=st.data(), n=st.sampled_from(BLOCK_RANGE_BANDS),
       channels=st.integers(1, 2), blocks=st.integers(1, 12))
def test_inverse_over_any_split_is_bitwise_the_whole(data, n, channels, blocks):
    # the drawn split and the split into one-block ranges; every sample of
    # the NaN-filled output must be written
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.standard_normal((blocks, n, channels))
    whole = mdct_inverse(MdctTensor(amps, 22016)).samples
    cuts = data.draw(st.sets(st.integers(1, blocks - 1))) if blocks > 1 else ()
    for bounds in [sorted({0, *cuts, blocks}), range(blocks + 1)]:
        out = np.full_like(whole, np.nan)
        for m0, m1 in zip(bounds, bounds[1:]):
            mdct_inverse_into(out, amps[m0:m1], m0, amps[m0 - 1] if m0 else None)
        assert out.tobytes() == whole.tobytes()


def accumulator_inverse_into(out, amplitudes, m0=0, previous=None):
    """mdct_inverse_into as it overlap-added into a (C, K + 1, N)
    accumulator and then copied it, transposed, into out: the bytes that
    writing the quarters straight into out must keep."""
    band_count, half = amplitudes.shape[1], amplitudes.shape[1] // 2
    num_blocks, m1 = len(out) // band_count, m0 + len(amplitudes)
    if m0:
        amplitudes = np.concatenate([previous[np.newaxis], amplitudes])
    folded = scipy.fft.dct(np.moveaxis(amplitudes, 2, 0), type=4, axis=-1)
    folded /= band_count
    lo, hi = folded[..., :half], folded[..., half:]
    w = np.split(vorbis_window(band_count), 4)
    acc = np.zeros((amplitudes.shape[2], len(amplitudes) + 1, band_count))
    acc[:, :-1, :half] = hi * w[0]
    acc[:, :-1, half:] = hi[..., ::-1] * -w[1]
    acc[:, 1:, :half] -= lo[..., ::-1] * w[2]
    acc[:, 1:, half:] -= lo * w[3]
    start = (m1 - len(amplitudes)) * band_count - half
    begin = max(m0 * band_count - half, 0)
    end = m1 * band_count - half if m1 < num_blocks else len(out)
    y = acc.reshape(len(acc), -1)[:, begin - start:end - start]
    if m0 == 0:
        y[:, :half] /= w[1] * w[1]
    if m1 == num_blocks:
        y[:, -half:] /= w[2] * w[2]
    out[begin:end] = y.T


@pytest.mark.parametrize("n", [8, 128])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("blocks, size", [(1, 1), (2, 1), (5, 2), (13, 4),
                                          (13, 13)])
@pytest.mark.parametrize("layout", ["C", "F", "stepped"])
def test_inverse_writes_the_accumulator_bytes_into_any_layout(
        n, channels, blocks, size, layout):
    # silent blocks of +0.0 and -0.0 too, so that the sign of a zero sample
    # shows in the bytes
    rng = np.random.default_rng(blocks * n + channels)
    amps = rng.standard_normal((blocks, n, channels))
    amps[::3], amps[1::4] = 0.0, -0.0
    expected = np.full((blocks * n, channels), np.nan)
    out = np.full((blocks * n, 2 * channels), np.nan,
                  order="F" if layout == "F" else "C")
    out = out[:, ::2] if layout == "stepped" else out[:, :channels]
    for m0 in range(0, blocks, size):
        m1 = min(m0 + size, blocks)
        previous = amps[m0 - 1] if m0 else None
        accumulator_inverse_into(expected, amps[m0:m1], m0, previous)
        mdct_inverse_into(out, amps[m0:m1], m0, previous)
    assert np.ascontiguousarray(out).tobytes() == expected.tobytes()


def test_block_ranges_outside_the_track_raise():
    buf = AudioBuffer(np.zeros((64, 2)), 22016)
    for m0, m1 in [(0, 5), (-1, 2), (2, 2), (3, 1)]:
        with pytest.raises(ShapeError):
            mdct_forward_fast(buf, 16, m0, m1)
    out, amps = np.zeros((64, 2)), np.zeros((2, 16, 2))
    for m0, previous in [(0, amps[0]), (1, None), (3, amps[0])]:
        with pytest.raises(ShapeError):
            mdct_inverse_into(out, amps, m0, previous)


@pytest.mark.deep
@settings(deadline=None)
@given(data=st.data(), channels=st.integers(1, 7),
       lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       layout=st.sampled_from(["contiguous", "channel_major", "stepped"]))
def test_channel_sum_is_bitwise_numpy_sum_and_mean(data, channels, lead, layout):
    # signed zeros, subnormals and far exponents, in the layouts the DSP
    # passes hand it: a tensor's (K, N, C), channel-major thresholds and a
    # strided slice
    values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
                       st.floats(-1e300, 1e300))
    if layout == "stepped":
        lead = [*lead[:-1], 2 * lead[-1]]
    x = data.draw(arrays(np.float64, (*lead, channels), elements=values))
    if layout == "channel_major":
        x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    elif layout == "stepped":
        x = x[..., ::2, :]
    total = channel_sum(x)
    assert total.tobytes() == x.sum(axis=-1).tobytes()
    assert (total / channels).tobytes() == x.mean(axis=-1).tobytes()


def test_channel_sum_of_negative_zeros_is_positive_zero():
    # as numpy's sum: a silent block's tonality is -0.0 in every channel,
    # and its channel mean is written to thresholds.csv as +0
    x = np.full((2, 3, 2), -0.0)
    assert channel_sum(x).tobytes() == np.zeros((2, 3)).tobytes()
    assert channel_sum(x[..., :1]).tobytes() == np.zeros((2, 3)).tobytes()


def test_length_not_multiple_raises():
    buf = AudioBuffer(np.zeros(100), 22016)
    with pytest.raises(ShapeError):
        mdct_forward_naive(buf, 64)
    with pytest.raises(ShapeError):
        mdct_forward_fast(buf, 64)


def test_band_center_frequencies():
    np.testing.assert_allclose(band_center_hz(22016, 128, 0), 43.0)
    np.testing.assert_allclose(band_center_hz(22016, 128, 5), 473.0)


def test_tensor_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    tensor = MdctTensor(rng.standard_normal((6, 16, 2)), 22016)
    path = tmp_path / "t.mdct"
    save_tensor(tensor, path)
    back = load_tensor(path)
    assert back.sample_rate_hz == 22016
    np.testing.assert_array_equal(back.amplitudes, tensor.amplitudes)


def test_tensor_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mdct"
    path.write_bytes(b"nope")
    with pytest.raises(ParseError):
        load_tensor(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_serialization_rejects_non_finite(tmp_path, bad):
    amps = np.zeros((6, 16, 2))
    amps[3, 5, 1] = bad
    path = tmp_path / "bad.mdct"
    save_tensor(MdctTensor(amps, 22016), path)
    with pytest.raises(ParseError, match="non-finite"):
        load_tensor(path)

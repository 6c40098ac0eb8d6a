import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaudio.audio_io import AudioBuffer
from octaudio.errors import ShapeError
from octaudio.mdct import channel_sum, mdct_forward_fast
from octaudio.spectral import (
    blur_time,
    db_pixels,
    fold_frequency,
    mean_tonality,
    reduce_spectrogram,
    signed_db_pixels,
    spectrogram,
    tonality_series,
    write_pgm,
)

FS, N = 22016, 128


def tone_amplitudes(freqs, amps, blocks=8, fs=FS, n=N):
    t = np.arange(blocks * n) / fs
    wave = sum(a * np.sin(2 * np.pi * f * t) for f, a in zip(freqs, amps))
    return mdct_forward_fast(AudioBuffer(wave, fs), n).amplitudes


def test_spectrogram_is_square_of_amplitudes():
    spec = spectrogram(np.array([[[1.0], [-2.0]], [[0.5], [0.0]]]))
    np.testing.assert_array_equal(
        spec, np.array([[[1.0], [4.0]], [[0.25], [0.0]]])
    )


def test_spectrogram_sign_invariance():
    rng = np.random.default_rng(0)
    amps = rng.standard_normal((4, 8, 2))
    np.testing.assert_array_equal(spectrogram(amps), spectrogram(-amps))


def test_spectrogram_zero():
    assert np.all(spectrogram(np.zeros((2, 8, 1))) == 0)


def test_tone_argmax_band():
    spec = spectrogram(tone_amplitudes([440.0], [0.5]))
    profile = spec[:, :, 0].sum(axis=0)
    assert np.argmax(profile) == 5          # 440 / 86 = 5.12


def test_db_pixels_max_is_255_uniform_is_flat():
    uniform = np.full((6, 4), 3.7)
    pixels = db_pixels(uniform)
    assert pixels.shape == (4, 6)           # transposed, band 0 at bottom
    assert np.all(pixels == 255)


def test_db_pixels_orientation():
    values = np.zeros((3, 4))
    values[1, 0] = 1.0                       # block 1, band 0
    pixels = db_pixels(values)
    assert pixels[-1, 1] == 255              # bottom row, column 1


def test_db_pixels_zero_input():
    assert np.all(db_pixels(np.zeros((3, 4))) == 0)


@pytest.mark.parametrize("pixels", [db_pixels, signed_db_pixels])
def test_pixels_in_column_pieces_with_whole_peak_match_whole(pixels):
    rng = np.random.default_rng(4)
    values = rng.standard_normal((11, 8)) * 10.0 ** rng.uniform(-6, 0, (11, 1))
    if pixels is db_pixels:
        values = values * values
    peak = np.abs(values).max()
    pieces = [pixels(values[m0:m0 + 3], -60.0, peak) for m0 in range(0, 11, 3)]
    np.testing.assert_array_equal(np.concatenate(pieces, axis=1),
                                  pixels(values, -60.0))


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_channel_mean_power_is_bitwise_mean_of_squares(channels):
    # the channel mean of A^2 that `analyze` draws its power image from
    rng = np.random.default_rng(channels)
    amps = rng.standard_normal((9, 16, channels))
    amps *= 10.0 ** rng.uniform(-170, 0, (9, 1, channels))   # subnormal squares
    amps[2] = 0.0
    expected = (amps ** 2).mean(axis=2)
    power = channel_sum(np.square(amps)) / channels
    np.testing.assert_array_equal(power.view(np.int64),
                                  expected.view(np.int64))


def test_harmonic_lines_at_expected_bands():
    spec = spectrogram(tone_amplitudes(
        [440.0, 880.0, 1760.0, 3520.0], [0.4, 0.3, 0.2, 0.1], blocks=16
    ))
    profile = spec[:, :, 0].sum(axis=0)
    background = np.median(profile)
    for expected in (5, 10, 20, 41):
        line = profile[expected - 1:expected + 2].max()
        assert line >= 100.0 * background


def test_signed_pixels_zero_is_midgray():
    pixels = signed_db_pixels(np.zeros((3, 4)))
    assert np.all(pixels == 128)


def test_signed_pixels_negation_reflects():
    rng = np.random.default_rng(1)
    amps = rng.standard_normal((5, 6))
    a = signed_db_pixels(amps).astype(int)
    b = signed_db_pixels(-amps).astype(int)
    np.testing.assert_array_equal(a + b, np.full_like(a, 256))


def test_signed_pixels_cover_both_sides():
    rng = np.random.default_rng(2)
    pixels = signed_db_pixels(rng.standard_normal((16, 16)))
    assert (pixels > 128).any()
    assert (pixels < 128).any()


def test_write_pgm_bytes(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(np.arange(6, dtype=np.uint8).reshape(2, 3), path)
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes(range(6))


def test_reduce_zero_folds_identity():
    rng = np.random.default_rng(3)
    spec = rng.uniform(0, 1, (8, 16, 1))
    levels = reduce_spectrogram(spec, 0)
    assert len(levels) == 1
    np.testing.assert_array_equal(levels[0], spec)


def test_fold_index_arithmetic():
    # energy at bands 16, 32, 33 of a 64-band grid lands in band 16 after one fold
    values = np.zeros((2, 64, 1))
    values[:, 16] = 1.0
    values[:, 32] = 2.0
    values[:, 33] = 3.0
    folded = fold_frequency(values)
    assert folded.shape == (2, 32, 1)
    np.testing.assert_allclose(folded[:, 16, 0], 6.0)
    assert folded.sum() == values.sum()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_fold_conserves_energy(seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 1, (4, 32, 2))
    folded = fold_frequency(values)
    assert folded.shape == (4, 16, 2)
    assert abs(folded.sum() - values.sum()) <= 1e-12 * values.sum()


def test_blur_time_averages_pairs():
    values = np.arange(8.0).reshape(4, 2, 1)
    blurred = blur_time(values)
    np.testing.assert_allclose(blurred[:, :, 0], [[1.0, 2.0], [5.0, 6.0]])


def test_harmonic_stack_collapses():
    # fundamental near band 20 with octave harmonics collapses after 2 folds
    spec = spectrogram(tone_amplitudes([1760.0, 3520.0, 7040.0],
                                       [0.3, 0.3, 0.3], blocks=16))
    final = reduce_spectrogram(spec, 2)[-1][:, :, 0].sum(axis=0)
    assert final.shape == (32,)
    assert final.max() >= 0.7 * final.sum()
    assert np.argmax(final) == 20


@pytest.mark.parametrize("shape", [(4, 8), (4,), (1, 4, 8, 1)])
def test_spectrogram_needs_blocks_bands_channels(shape):
    with pytest.raises(ShapeError):
        reduce_spectrogram(np.zeros(shape), 0)


def test_reduce_divisibility_error():
    with pytest.raises(ShapeError):
        reduce_spectrogram(np.zeros((6, 16, 1)), 2)   # 6 blocks, not 4k


def test_each_fold_halves_axes():
    levels = reduce_spectrogram(np.zeros((16, 32, 1)), 2)
    shapes = [lvl.shape[:2] for lvl in levels]
    assert shapes == [(16, 32), (8, 16), (4, 8)]


def test_tonality_series_tone_vs_noise():
    tone = tone_amplitudes([440.0], [0.5], blocks=32)
    assert mean_tonality(tone) >= 0.9
    rng = np.random.default_rng(5)
    noise = mdct_forward_fast(
        AudioBuffer(rng.uniform(-0.5, 0.5, 32 * N), FS), N
    ).amplitudes
    assert mean_tonality(noise) <= 0.1
    series = tonality_series(tone)
    assert series.shape == (32,)
    assert np.all((series >= 0) & (series <= 1))

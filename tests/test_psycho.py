import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaudio.audio_io import AudioBuffer
from octaudio.mdct import MdctTensor, mdct_forward_fast, mdct_forward_naive
from octaudio import psycho, spectral
from octaudio.psycho import (
    absolute_threshold,
    absolute_threshold_db,
    bark_partition,
    band_energies,
    compute_thresholds,
    masking_threshold,
    noise_sigma,
    psychoacoustic_noise,
    quantization_step,
    quantize,
    spreading_gain_db,
    tonality,
    write_thresholds_csv,
)

FS, N = 22016, 128


@pytest.fixture(scope="module")
def partition():
    return bark_partition(FS, N)


def test_partition_bin0_lands_in_band0(partition):
    # bin 0 center is 43 Hz, inside the 0-100 Hz band
    assert partition.bin_to_band[0] == 0


def test_partition_covers_all_bins_once(partition):
    assert partition.bin_count == N
    pooled = partition.pooling_matrix().sum(axis=1)
    np.testing.assert_array_equal(pooled, np.ones(N))
    # bands are contiguous bin ranges
    assert np.all(np.diff(partition.bin_to_band) >= 0)


def test_partition_clips_table_at_nyquist(partition):
    # Nyquist 11008: last table edge used is 9500, the rest is one final band
    assert partition.band_edges_hz[-2] == 9500
    assert partition.band_edges_hz[-1] == 11008
    top_band = partition.band_count - 1
    top_bins = np.where(partition.bin_to_band == top_band)[0]
    centers = FS * (top_bins + 0.5) / (2 * N)
    assert np.all(centers >= 9500)


def test_partition_edges_ascending(partition):
    assert partition.band_edges_hz[0] == 0
    assert np.all(np.diff(partition.band_edges_hz) > 0)


def test_absolute_threshold_anchor_1khz():
    assert absolute_threshold_db(1000.0) == pytest.approx(3.369, abs=1e-3)


def test_absolute_threshold_minimum_near_3300hz():
    at_33 = absolute_threshold_db(3300.0)
    assert at_33 == pytest.approx(-4.98, abs=0.01)
    for f_khz in (0.5, 1.0, 2.0, 5.0, 8.0):
        if f_khz != 3.3:
            assert at_33 < absolute_threshold_db(f_khz * 1000.0)


def test_absolute_threshold_10khz_dominated_by_quartic():
    assert absolute_threshold_db(10000.0) == pytest.approx(10.58, abs=0.01)


@pytest.mark.parametrize("rate", [48000, 96000, 192000])
def test_absolute_threshold_capped_at_full_scale(rate):
    # the fit reaches ~9700 dB in the top band at 192 kHz; 10^(that/10)
    # overflowed to inf
    partition = bark_partition(rate, 1024)
    with np.errstate(over="raise", invalid="raise"):
        intensities = absolute_threshold(partition)
    assert np.all(np.isfinite(intensities)) and np.all(intensities <= 1.0)
    above = absolute_threshold_db(partition.band_mid_hz) >= 96.0
    assert above.any()
    np.testing.assert_array_equal(intensities[above], 1.0)


def test_absolute_threshold_intensity_reference(partition):
    intensities = absolute_threshold(partition, db_reference=96.0)
    level = absolute_threshold_db(partition.band_mid_hz)
    np.testing.assert_allclose(10 * np.log10(intensities), level - 96.0)


def test_tonality_flat_spectrum_is_zero():
    assert tonality(np.full(N, 0.37)) == 0.0
    assert tonality(np.full(N, -0.37)) == 0.0


def test_tonality_single_bin_is_one():
    spectrum = np.zeros(N)
    spectrum[5] = 0.8
    assert tonality(spectrum) == 1.0


def test_tonality_zero_block_is_zero():
    assert tonality(np.zeros(N)) == 0.0


def test_tonality_white_noise_low():
    rng = np.random.default_rng(11)
    blocks = rng.standard_normal((200, N)) * 0.3
    taus = tonality(blocks)
    assert taus.shape == (200,)
    assert np.mean(taus) <= 0.1


def test_tonality_pure_tone_high():
    t = np.arange(FS) / FS
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)[: (FS // N) * N]
    tensor = mdct_forward_fast(AudioBuffer(tone, FS), N)
    taus = tonality(tensor.amplitudes[:, :, 0])
    assert np.mean(taus) >= 0.9


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 2 ** 31))
def test_tonality_scale_invariance(lam, seed):
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(0.01, 1.0, N) * np.sign(rng.standard_normal(N))
    assert tonality(lam * spectrum) == pytest.approx(tonality(spectrum), abs=1e-9)


def test_spreading_zero_at_same_band():
    assert spreading_gain_db(0) == pytest.approx(0.0, abs=0.01)


def test_spreading_upward_shallower_than_downward():
    # a masker spreads farther toward higher bands than toward lower ones
    assert spreading_gain_db(3) > spreading_gain_db(-3)


def test_masking_zero_block(partition):
    out = masking_threshold(np.zeros(N), partition)
    np.testing.assert_array_equal(out, np.zeros(partition.band_count))


def test_masking_homogeneity_degree_two(partition):
    rng = np.random.default_rng(5)
    spectrum = rng.uniform(0.01, 1.0, N) * np.sign(rng.standard_normal(N))
    base = masking_threshold(spectrum, partition)
    doubled = masking_threshold(2.0 * spectrum, partition)
    np.testing.assert_allclose(doubled, 4.0 * base, rtol=1e-9)


def test_masking_batched_shape(partition):
    rng = np.random.default_rng(6)
    blocks = rng.uniform(-1, 1, (3, 7, N))
    out = masking_threshold(blocks, partition)
    assert out.shape == (3, 7, partition.band_count)
    single = masking_threshold(blocks[1, 2], partition)
    np.testing.assert_allclose(out[1, 2], single)


def harmonic_tone_tensor(quiet_harmonic_db=-30.0):
    """440 Hz tone with three harmonics; first harmonic set quiet."""
    t = np.arange(8 * N) / FS
    h2 = 10.0 ** (quiet_harmonic_db / 20.0)
    wave = 0.5 * (
        np.sin(2 * np.pi * 440.0 * t)
        + h2 * np.sin(2 * np.pi * 880.0 * t)
        + 0.1 * np.sin(2 * np.pi * 1760.0 * t)
        + 0.1 * np.sin(2 * np.pi * 3520.0 * t)
    )
    return mdct_forward_naive(AudioBuffer(wave, FS), N)


def test_quiet_first_harmonic_is_masked(partition):
    # 880 Hz component 30 dB below the fundamental sits under the combined
    # threshold: the band's energy is inaudible next to the 440 Hz tone
    tensor = harmonic_tone_tensor()
    thresholds = compute_thresholds(tensor.amplitudes, partition)
    block = 4
    energies = band_energies(tensor.amplitudes[block, :, 0], partition)
    band_880 = int(np.searchsorted(partition.band_edges_hz, 880.0, "right") - 1)
    assert thresholds.combined[block, band_880, 0] > energies[band_880]
    # sanity: the fundamental's own band stays audible
    band_440 = int(np.searchsorted(partition.band_edges_hz, 440.0, "right") - 1)
    assert thresholds.combined[block, band_440, 0] < energies[band_440]


def test_combined_is_elementwise_max(partition):
    tensor = harmonic_tone_tensor()
    thr = compute_thresholds(tensor.amplitudes, partition)
    np.testing.assert_array_equal(
        thr.combined,
        np.maximum(thr.mask, thr.absolute[np.newaxis, :, np.newaxis]),
    )
    assert np.all(thr.tonality_per_block >= 0)
    assert np.all(thr.tonality_per_block <= 1)


def test_compute_thresholds_computes_tonality_once(monkeypatch, partition):
    calls = []

    def counted(amplitudes):
        calls.append(amplitudes.shape)
        return tonality(amplitudes)

    monkeypatch.setattr(psycho, "tonality", counted)
    thr = compute_thresholds(harmonic_tone_tensor().amplitudes, partition)
    assert calls == [(1, 8, N)]
    assert thr.tonality_per_block.shape == (8, 1)


@pytest.mark.deep
@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), channels=st.sampled_from([1, 2, 3]),
       blocks=st.integers(1, 40), bands=st.sampled_from([8, 16, 32, 64, 128, 256]),
       rate=st.sampled_from([8000, 16000, 22016, 32000, 44100, 48000]))
def test_each_channel_thresholds_are_that_channel_alone(seed, channels, blocks,
                                                        bands, rate):
    # levels from near silence to full scale, with silent blocks, so that
    # tonality, masking and the absolute threshold all vary by channel
    rng = np.random.default_rng(seed)
    level = 10.0 ** rng.uniform(-7.0, 0.0, (blocks, 1, channels))
    level[rng.random(level.shape) < 0.1] = 0.0
    amps = rng.standard_normal((blocks, bands, channels)) * level
    partition = bark_partition(rate, bands)
    alone = [compute_thresholds(np.ascontiguousarray(amps[:, :, c:c + 1]),
                                partition) for c in range(channels)]
    channel_major = np.ascontiguousarray(np.moveaxis(amps, 2, 0))
    for layout in [amps, np.moveaxis(channel_major, 0, 2)]:
        thr = compute_thresholds(layout, partition)
        for c, one in enumerate(alone):
            for name in ("mask", "combined", "tonality_per_block"):
                np.testing.assert_array_equal(getattr(thr, name)[..., c],
                                              getattr(one, name)[..., 0], name)
        np.testing.assert_array_equal(
            spectral.tonality_series(layout),
            np.mean([one.tonality_per_block[:, 0] for one in alone], axis=0))


def csv_writer_thresholds(tensor, path):
    """write_thresholds_csv as a per-row csv.writer loop: the byte oracle.
    Returns the thresholds, as write_thresholds_csv does."""
    partition = bark_partition(tensor.sample_rate_hz, tensor.amplitudes.shape[1])
    thr = compute_thresholds(tensor.amplitudes, partition)
    mask = thr.mask.mean(axis=2)
    combined = thr.combined.mean(axis=2)
    tau = thr.tonality_per_block.mean(axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "bark_band", "I_abs", "I_mask", "combined", "tau"])
        for m in range(len(tensor.amplitudes)):
            for j in range(partition.band_count):
                writer.writerow([
                    m, j,
                    f"{thr.absolute[j]:.12e}",
                    f"{mask[m, j]:.12e}",
                    f"{combined[m, j]:.12e}",
                    f"{tau[m]:.9f}",
                ])
    return thr


@pytest.mark.parametrize("blocks, channels", [
    (3, 1), (256, 2), (517, 2),
])
def test_thresholds_csv_matches_csv_writer_bytes(tmp_path, blocks, channels):
    # levels from near silence to full scale, so that in some cells the
    # absolute threshold wins and combined differs from I_mask
    rng = np.random.default_rng(blocks)
    level = 10.0 ** rng.uniform(-7.0, 0.0, (blocks, 1, channels))
    tensor = MdctTensor(rng.standard_normal((blocks, N, channels)) * level, FS)
    write_thresholds_csv(tensor.amplitudes, bark_partition(FS, N),
                         tmp_path / "fast.csv")
    csv_writer_thresholds(tensor, tmp_path / "oracle.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "oracle.csv").read_bytes()
    rows = list(csv.DictReader(fast.decode().splitlines()))
    assert len(rows) == blocks * bark_partition(FS, N).band_count
    assert any(r["combined"] != r["I_mask"] for r in rows)
    assert any(r["combined"] == r["I_mask"] for r in rows)


def test_quantize_zero_is_zero():
    assert quantize(np.zeros(4), np.full(4, 0.5)).tolist() == [0, 0, 0, 0]


def test_quantize_rounding_example():
    step = 0.2
    out = quantize(np.array([3.7 * step]), np.array([step]))
    assert out[0] == pytest.approx(4 * step)
    assert abs(3.7 * step - out[0]) <= step / 2


def test_quantize_zero_step_is_identity():
    amps = np.array([0.3, -0.7])
    np.testing.assert_array_equal(quantize(amps, np.zeros(2)), amps)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_quantize_error_bound(seed):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-10, 10, 64)
    step = rng.uniform(0, 0.5, 64)
    err = np.abs(amps - quantize(amps, step))
    assert np.all(err <= step / 2 + 1e-15)


def test_quantization_step_broadcasts_bands_to_bins(partition):
    combined = np.arange(1.0, partition.band_count + 1.0)[:, np.newaxis]
    steps = quantization_step(combined, partition)
    assert steps.shape == (N, 1)
    np.testing.assert_allclose(
        steps, np.sqrt(combined)[partition.bin_to_band]
    )


def test_noise_zero_scale_identity(partition):
    rng = np.random.default_rng(2)
    amps = rng.standard_normal((4, N, 1))
    out = psychoacoustic_noise(amps, noise_sigma(amps, partition), scale=0.0,
                               rng_seed=1)
    np.testing.assert_array_equal(out, amps)


def test_noise_deterministic_per_seed(partition):
    rng = np.random.default_rng(2)
    amps = rng.standard_normal((4, N, 1)) * 0.1
    sigma = noise_sigma(amps, partition)
    a = psychoacoustic_noise(amps, sigma, scale=1.0, rng_seed=7)
    b = psychoacoustic_noise(amps, sigma, scale=1.0, rng_seed=7)
    c = psychoacoustic_noise(amps, sigma, scale=1.0, rng_seed=8)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
def test_noise_rejects_a_scale_that_is_not_finite_and_non_negative(
        partition, scale):
    amps = np.random.default_rng(2).standard_normal((4, N, 1))
    with pytest.raises(ValueError, match="scale"):
        psychoacoustic_noise(amps, noise_sigma(amps, partition), scale)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), channels=st.integers(1, 3),
       blocks=st.integers(1, 6), db_reference=st.sampled_from([96.0, 1e4]),
       scale=st.one_of(st.just(0.0), st.floats(2.0 ** -1021, 1e3)))
def test_noise_is_bitwise_amplitudes_plus_z_times_half_step(
        seed, channels, blocks, db_reference, scale):
    # the expression the noise layer had when it took the step itself:
    # amps + z * (scale * 0.5 * step), or a copy at scale 0; silent blocks
    # under a 1e4 dB reference have a zero step
    rng = np.random.default_rng(seed)
    level = 10.0 ** rng.uniform(-12.0, 0.0, (blocks, 1, channels))
    level[rng.random(level.shape) < 0.2] = 0.0
    amps = rng.standard_normal((blocks, 32, channels)) * level
    partition = bark_partition(FS, 32)
    sigma = noise_sigma(amps, partition, db_reference=db_reference)
    noisy = psychoacoustic_noise(amps, sigma, scale, seed)
    step = quantization_step(
        compute_thresholds(amps, partition, db_reference=db_reference).combined,
        partition)
    z = np.random.default_rng(seed).standard_normal(amps.shape)
    expected = amps + z * (scale * 0.5 * step) if scale else amps
    assert noisy.tobytes() == expected.tobytes()


def test_noise_variance_tracks_prediction(partition):
    # 440 Hz corpus, >= 1000 blocks: per-band mean noise power within 20%
    # of each bin's own (scale * step / 2)^2 prediction
    blocks = 1100
    t = np.arange(blocks * N) / FS
    tone = 0.4 * np.sin(2 * np.pi * 440.0 * t)
    amps = mdct_forward_fast(AudioBuffer(tone, FS), N).amplitudes
    noisy = psychoacoustic_noise(amps, noise_sigma(amps, partition),
                                 scale=1.0, rng_seed=3)
    added = noisy - amps

    thresholds = compute_thresholds(amps, partition)
    predicted = quantization_step(thresholds.combined, partition) / 2.0

    pool = partition.pooling_matrix()
    normalized = (added[:, :, 0] / predicted[:, :, 0]) ** 2
    per_band = (normalized @ pool).sum(axis=0) / (blocks * pool.sum(axis=0))
    assert np.all(per_band >= 0.8)
    assert np.all(per_band <= 1.2)

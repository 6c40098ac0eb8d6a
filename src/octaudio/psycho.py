"""Hearing thresholds, masking, tonality and the quantization-noise layer.

Intensities live in signal units: a full-scale amplitude of 1.0 in a single
band corresponds to `db_reference` dB SPL (96 by default), so absolute
thresholds from the hearing-threshold curve are directly comparable to band
energies of [-1, 1] audio.

Masking is computed on the critical-band (Bark) scale. Band energies spread
to neighbours through the classic spreading curve
15.81 + 7.5(dz + 0.474) - 17.5*sqrt(1 + (dz + 0.474)^2) dB with
dz = maskee - masker, combined with a non-linear superposition exponent
alpha, and reduced by the tonality-dependent offset
O_j = tau*(14.5 + j) + (1 - tau)*5.5.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _decimal
from .mdct import band_center_hz, channel_sum

# Zwicker critical-band boundaries (Hz). Clipped to Nyquist at partition time.
ZWICKER_EDGES_HZ = (
    0, 100, 200, 300, 400, 510, 630, 770, 920, 1080, 1270, 1480, 1720,
    2000, 2320, 2700, 3150, 3700, 4400, 5300, 6400, 7700, 9500, 12000, 15500,
)

DEFAULT_ALPHA = 0.3
DEFAULT_DB_REFERENCE = 96.0
AMPLITUDE_FLOOR = 1e-12
THRESHOLDS_CSV_HEADER = "block,bark_band,I_abs,I_mask,combined,tau\r\n"


@dataclass
class BarkPartition:
    """Assignment of MDCT bins to critical bands.

    band_edges_hz has J+1 ascending entries starting at 0 and ending at
    Nyquist; bin_to_band maps each of the N bins (by center frequency) to
    one of the J contiguous bands; band_mid_hz is the midpoint of each band.
    """

    band_edges_hz: np.ndarray
    bin_to_band: np.ndarray
    band_mid_hz: np.ndarray

    @property
    def band_count(self):
        return len(self.band_mid_hz)

    @property
    def bin_count(self):
        return len(self.bin_to_band)

    def pooling_matrix(self):
        """(N, J) 0/1 matrix summing per-bin values into bands."""
        w = np.zeros((self.bin_count, self.band_count))
        w[np.arange(self.bin_count), self.bin_to_band] = 1.0
        return w


def bark_partition(sample_rate_hz, band_count):
    """Partition `band_count` MDCT bins at `sample_rate_hz` into Bark bands.

    Table edges at or above Nyquist are dropped; the remaining range up to
    Nyquist forms the final band. Bins are assigned by center frequency.
    """
    nyquist = sample_rate_hz / 2.0
    edges = [e for e in ZWICKER_EDGES_HZ if e < nyquist]
    edges.append(nyquist)
    edges = np.asarray(edges, dtype=np.float64)

    centers = band_center_hz(sample_rate_hz, band_count)
    bin_to_band = np.searchsorted(edges, centers, side="right") - 1
    bin_to_band = np.clip(bin_to_band, 0, len(edges) - 2)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return BarkPartition(edges, bin_to_band.astype(np.intp), mids)


def absolute_threshold_db(freq_hz):
    """Hearing threshold in dB SPL at freq_hz (scalar or array).

    3.64 f^-0.8 - 6.5 exp(-0.6 (f - 3.3)^2) + 1e-3 f^4 with f in kHz.
    """
    f = np.asarray(freq_hz, dtype=np.float64) / 1000.0
    return 3.64 * f ** -0.8 - 6.5 * np.exp(-0.6 * (f - 3.3) ** 2) + 1e-3 * f ** 4


def absolute_threshold(partition, db_reference=DEFAULT_DB_REFERENCE):
    """Per-band absolute threshold as signal-unit intensity, at most 1.

    The fit grows as f^4 (96 dB at 17.6 kHz, 160 dB at 20 kHz); a level
    above full scale (db_reference) is capped there, since no representable
    sound is audible in that band.
    """
    level_db = np.minimum(absolute_threshold_db(partition.band_mid_hz),
                          db_reference)
    return 10.0 ** ((level_db - db_reference) / 10.0)


def tonality(block_amplitudes):
    """Tonality tau in [0, 1] from the flatness of the power spectrum.

    tau = min(1, 10/(-60 dB) * log10(gmean(A^2) / amean(A^2))) on magnitudes
    floored at 1e-12, then clamped at 0. Flat spectra (and all-zero blocks)
    give 0, a single occupied bin gives 1. Leading axes are preserved.

    The power is C-ordered whatever the input's layout, so each mean sums a
    contiguous bin axis and a row's tau has the bits of that row alone.
    """
    power = np.maximum(np.abs(np.asarray(block_amplitudes, dtype=np.float64),
                              order="C"), AMPLITUDE_FLOOR) ** 2
    # both means in the log10 domain so a flat spectrum cancels exactly
    log_gmean = np.mean(np.log10(power), axis=-1)
    flatness_db = 10.0 * (log_gmean - np.log10(np.mean(power, axis=-1)))
    return np.clip(flatness_db / -60.0, 0.0, 1.0)


def spreading_gain_db(delta_bands):
    """Masking gain in dB at a maskee `delta_bands` above the masker."""
    u = np.asarray(delta_bands, dtype=np.float64) + 0.474
    return 15.81 + 7.5 * u - 17.5 * np.sqrt(1.0 + u * u)


def _spreading_matrix(band_count, alpha):
    """(J, J) matrix of 10^(alpha/10 * gain(masker i -> maskee j))."""
    i = np.arange(band_count)[:, np.newaxis]
    j = np.arange(band_count)[np.newaxis, :]
    return 10.0 ** (alpha / 10.0 * spreading_gain_db(j - i))


def band_energies(block_amplitudes, partition):
    """Sum of squared amplitudes per Bark band. Leading axes preserved.

    The squares are C-ordered, so each channel's bins reach matmul as
    contiguous rows whatever the input's layout.
    """
    amps = np.asarray(block_amplitudes, dtype=np.float64)
    return np.multiply(amps, amps, order="C") @ partition.pooling_matrix()


def masking_threshold(block_amplitudes, partition, alpha=DEFAULT_ALPHA):
    """Per-band masking intensity I_mask,j for one or more spectra.

    I_mask,j = (sum_i E_i^alpha 10^(alpha/10 (f(j-i) - O_j)))^(1/alpha) with
    band energies E, spreading f and tonality-dependent offset O. Input may
    have leading axes before the bin axis; output replaces bins with bands.
    """
    energies = band_energies(block_amplitudes, partition)
    return _masking(energies, tonality(block_amplitudes), partition, alpha)


def _masking(energies, tau, partition, alpha):
    """masking_threshold from band energies and tonality (leading axes)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    tau = tau[..., np.newaxis]
    offset_db = tau * (14.5 + np.arange(partition.band_count)) + (1.0 - tau) * 5.5
    spread = energies ** alpha @ _spreading_matrix(partition.band_count, alpha)
    return (spread * 10.0 ** (-alpha / 10.0 * offset_db)) ** (1.0 / alpha)


@dataclass
class MaskingThresholds:
    """Per-block hearing thresholds of an amplitude tensor.

    absolute: (J,) intensities; mask and combined: (M, J, C);
    tonality_per_block: (M, C) values in [0, 1].
    """

    absolute: np.ndarray
    mask: np.ndarray
    combined: np.ndarray
    tonality_per_block: np.ndarray


def compute_thresholds(amplitudes, partition, alpha=DEFAULT_ALPHA,
                       db_reference=DEFAULT_DB_REFERENCE):
    """Absolute, masking and combined thresholds for every block/channel.

    amplitudes is (..., M, N, C) with any leading axes, which mask,
    combined and tonality_per_block keep.
    """
    amps = np.moveaxis(amplitudes, -1, -3)    # (..., C, M, N)
    # energies before tonality: the other order left up to 9 MB more freed
    # temporaries resident in the heap and raised analyze's peak RSS
    energies = band_energies(amps, partition)
    tau = tonality(amps)
    mask = np.moveaxis(_masking(energies, tau, partition, alpha), -3, -1)
    tau = np.moveaxis(tau, -2, -1)
    absolute = absolute_threshold(partition, db_reference)
    combined = np.maximum(mask, absolute[:, np.newaxis])
    return MaskingThresholds(absolute, mask, combined, tau)


def quantization_step(combined, partition):
    """Per-bin amplitude step: sqrt of the band intensity, broadcast to bins.

    combined is (..., J, C); the band axis is expanded to bins.
    """
    steps = np.sqrt(np.asarray(combined, dtype=np.float64))
    return steps[..., partition.bin_to_band, :]


def quantize(amplitudes, step):
    """Round amplitudes to integer multiples of step; zero step is identity."""
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    step = np.broadcast_to(np.asarray(step, dtype=np.float64), amplitudes.shape)
    out = amplitudes.copy()
    nz = step > 0
    out[nz] = np.round(amplitudes[nz] / step[nz]) * step[nz]
    return out


def noise_sigma(amplitudes, partition, alpha=DEFAULT_ALPHA,
                db_reference=DEFAULT_DB_REFERENCE):
    """Per-bin std of the inaudible noise: half the quantization step of
    each spectrum's own thresholds.

    amplitudes is (..., M, N, C), as for compute_thresholds; sigma has
    their shape.
    """
    thresholds = compute_thresholds(amplitudes, partition, alpha, db_reference)
    return 0.5 * quantization_step(thresholds.combined, partition)


def psychoacoustic_noise(amplitudes, sigma, scale=1.0, rng_seed=0):
    """amplitudes plus zero-mean gaussian noise with std scale * sigma per
    bin.

    sigma is the per-bin std at scale = 1: noise_sigma of the amplitudes
    makes the noise inaudible there. Deterministic given rng_seed; scale = 0
    returns a copy of the input.
    """
    if not 0 <= scale < math.inf:
        raise ValueError("scale must be finite and non-negative")
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if scale == 0.0:
        return amplitudes.copy()
    # amplitudes + z * scale * sigma, computed in the array z is drawn into
    noisy = np.random.default_rng(rng_seed).standard_normal(amplitudes.shape)
    noisy *= scale * sigma
    noisy += amplitudes
    return noisy


def add_noise_and_report(amplitudes, sigma, scale, rng, sums):
    """psychoacoustic_noise of (K, N, C) amplitudes at the per-bin std
    sigma, their noise_sigma.

    Adds to the (2, N) sums, per bin and over blocks and channels, the added
    power (row 0) and its ratio to sigma^2 (row 1; 0 where sigma is 0).
    """
    noisy = psychoacoustic_noise(amplitudes, sigma, scale, rng)
    added = noisy - amplitudes
    terms = np.zeros_like(added)
    np.divide(added, sigma, out=terms, where=sigma > 0)
    sums[1] += channel_sum(np.square(terms, out=terms)).sum(axis=0)
    sums[0] += channel_sum(np.multiply(added, added, out=terms)).sum(axis=0)
    return noisy


def band_report(sums, partition, count):
    """Band means (added power, ratio) of add_noise_and_report's sums over
    count blocks times channels: each bin's mean, averaged over the band."""
    pool = partition.pooling_matrix()
    bins_per_band = np.maximum(pool.sum(axis=0), 1)
    return [row @ pool / bins_per_band for row in sums / count]


def write_thresholds_csv(amplitudes, partition, path, alpha=DEFAULT_ALPHA,
                         db_reference=DEFAULT_DB_REFERENCE):
    """Dump per-block per-band thresholds (channel-averaged) of (M, N, C)
    amplitudes as CSV and return them (MaskingThresholds).

    The file is THRESHOLDS_CSV_HEADER followed by write_threshold_rows of
    every block.
    """
    thr = compute_thresholds(amplitudes, partition, alpha, db_reference)
    with open(path, "w", newline="") as fh:
        fh.write(THRESHOLDS_CSV_HEADER)
        write_threshold_rows(fh, thr, 0)
    return thr


def write_threshold_rows(fh, thr, first_block):
    """Append the CSV rows of thr's blocks, numbered from first_block, and
    return the (K,) channel-mean tonality they hold.

    Rows are (block, bark_band, I_abs, I_mask, combined, tau), channel-
    averaged, in the bytes of an excel-dialect csv.writer, "\r\n" line
    ends included: I_abs, I_mask and combined as format(x, ".12e"), tau as
    format(x, ".9f"). The rows are assembled as one byte matrix, and
    combined is formatted only where it differs from I_mask.
    """
    channels = thr.mask.shape[-1]
    mask, combined, tau = (channel_sum(x) / channels for x in (
        thr.mask, thr.combined, thr.tonality_per_block))
    band = _decimal.fixed(np.arange(len(thr.absolute)), 0)
    absolute = _decimal.scientific(thr.absolute)
    block = _decimal.fixed(np.arange(first_block, first_block + len(mask)), 0)
    tau_text = _decimal.fixed(tau, 9)
    differs = combined != mask
    # one call, so that both fields have the same width
    text = _decimal.scientific(np.concatenate([mask.ravel(), combined[differs]]))
    mask_text = text[:mask.size].reshape(mask.shape + (-1,))
    combined_text = mask_text.copy()
    combined_text[differs] = text[mask.size:]
    fh.write(_decimal.csv_rows(block[:, np.newaxis], band, absolute, mask_text,
                               combined_text, tau_text[:, np.newaxis]))
    return tau

"""Training corpora of MDCT tensors: synthetic harmonic tones, so training
and tests need no real audio, and the segments of a directory of WAVs."""

import os

import numpy as np

from .audio_io import AudioBuffer, read_wav, resample
from .errors import ConfigError
from .mdct import channel_sum, mdct_forward_fast

FUNDAMENTAL_RANGE_HZ = (110.0, 880.0)
MAX_HARMONICS = 4


def synthetic_tone(rng, sample_rate_hz, num_samples, channels=1):
    """One random tone: fundamental in 110-880 Hz, 1-4 harmonics, an
    attack/decay amplitude envelope, peak level in [0.3, 0.8]."""
    f0 = rng.uniform(*FUNDAMENTAL_RANGE_HZ)
    n_harmonics = int(rng.integers(1, MAX_HARMONICS + 1))
    t = np.arange(num_samples) / sample_rate_hz
    wave = np.zeros(num_samples)
    nyquist = sample_rate_hz / 2.0
    for h in range(n_harmonics):
        freq = f0 * (h + 1)
        if freq >= nyquist:
            break
        amp = rng.uniform(0.3, 1.0) / (h + 1)
        wave += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))

    attack = max(1, int(rng.uniform(0.02, 0.2) * num_samples))
    decay = rng.uniform(0.5, 4.0)
    envelope = np.minimum(np.arange(num_samples) / attack, 1.0)
    envelope *= np.exp(-decay * t / t[-1])
    wave *= envelope

    peak = np.max(np.abs(wave))
    if peak > 0:
        wave *= rng.uniform(0.3, 0.8) / peak
    samples = np.repeat(wave[:, np.newaxis], channels, axis=1)
    return AudioBuffer(samples, sample_rate_hz)


def synthetic_tone_dataset(rng, count, sample_rate_hz, num_blocks, band_count,
                           channels=1):
    """`count` MDCT tensors of shape (num_blocks, band_count, channels)."""
    num_samples = num_blocks * band_count
    return [
        mdct_forward_fast(
            synthetic_tone(rng, sample_rate_hz, num_samples, channels), band_count
        )
        for _ in range(count)
    ]


def wav_dataset(directory, sample_rate_hz, num_blocks, band_count, channels):
    """MDCT tensors of every whole, back-to-back segment of num_blocks *
    band_count samples of each .wav file under directory (in name order),
    resampled to sample_rate_hz. A mono model takes the channel mean, and a
    model with more channels than the file repeats its channel 0.
    ConfigError if no .wav file or no whole segment is found."""
    wavs = sorted(os.path.join(directory, f) for f in os.listdir(directory)
                  if f.lower().endswith(".wav"))
    if not wavs:
        raise ConfigError(f"no .wav files under {directory!r}")
    segment = num_blocks * band_count
    tensors = []
    for path in wavs:
        samples = resample(read_wav(path), sample_rate_hz).samples
        if samples.shape[1] != channels:
            if channels == 1:
                samples = (channel_sum(samples) / samples.shape[1])[:, np.newaxis]
            else:
                samples = np.repeat(samples[:, :1], channels, axis=1)
        for start in range(0, len(samples) - segment + 1, segment):
            tensors.append(mdct_forward_fast(AudioBuffer(
                samples[start:start + segment], sample_rate_hz), band_count))
    if not tensors:
        raise ConfigError(f"no segment of {segment} samples fits the input audio")
    return tensors

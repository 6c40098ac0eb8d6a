import argparse
import contextlib
import csv
import dataclasses
import io
import math
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaudio import cli, datasets, mdct, psycho, spectral
from octaudio.audio_io import AudioBuffer, read_wav, resample, write_wav
from octaudio.cli import main
from octaudio.config import load_config
from octaudio.errors import ConfigError, ShapeError
from octaudio.mdct import (
    MdctTensor,
    mdct_forward_fast,
    mdct_inverse,
    save_tensor,
)
from octaudio.nn import autodiff as ad
from octaudio.nn.model import (
    ModelConfig,
    generator,
    generator_param_shapes,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from test_psycho import csv_writer_thresholds

FS = 22016


def write_tone(path, freq=440.0, seconds=0.5, amp=0.5, fs=FS):
    t = np.arange(int(fs * seconds)) / fs
    write_wav(AudioBuffer(amp * np.sin(2 * np.pi * freq * t), fs), path)


def write_float_wav(path, samples, fs=FS):
    """A 32-bit float WAV of (T, C) samples; write_wav writes 16-bit PCM."""
    samples = np.asarray(samples, dtype="<f4")
    channels = samples.shape[1]
    data = samples.tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 3, channels, fs, fs * 4 * channels,
                      4 * channels, 32)
    chunks = b"fmt " + fmt + b"data" + struct.pack("<I", len(data)) + data
    pathlib.Path(path).write_bytes(
        b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob.startswith(b"P5\n")
    header, rest = blob.split(b"255\n", 1)
    dims = header.split(b"\n")[1].split()
    width, height = int(dims[0]), int(dims[1])
    return np.frombuffer(rest, dtype=np.uint8).reshape(height, width)


def test_analyze_tone(tmp_path, capsys):
    wav = tmp_path / "tone.wav"
    write_tone(wav)
    out = tmp_path / "out"
    assert main(["analyze", str(wav), str(out)]) == 0
    pixels = read_pgm(out / "spectrogram.pgm")
    assert pixels.shape[0] == 128
    # argmax band of the column-summed image is band 5 (row 128-1-5)
    profile = pixels.astype(int).sum(axis=1)
    assert np.argmax(profile) == 128 - 1 - 5
    assert (out / "signed_amplitudes.pgm").exists()
    assert (out / "thresholds.csv").exists()
    with open(out / "tonality.csv") as fh:
        rows = list(csv.DictReader(fh))
    taus = np.array([float(r["tau"]) for r in rows])
    assert taus.mean() >= 0.9
    # the cached transform inverts back to the analyzed audio
    from octaudio.mdct import load_tensor, mdct_inverse

    cached = load_tensor(out / "mdct.bin")
    recovered = mdct_inverse(cached)
    original = read_wav(wav)
    assert np.max(np.abs(
        recovered.samples - original.samples[: len(recovered)]
    )) <= 1e-10


def test_analyze_silence_all_zero_tonality(tmp_path):
    wav = tmp_path / "silence.wav"
    write_wav(AudioBuffer(np.zeros(FS // 4), FS), wav)
    out = tmp_path / "out"
    assert main(["analyze", str(wav), str(out)]) == 0
    with open(out / "tonality.csv") as fh:
        taus = [float(r["tau"]) for r in csv.DictReader(fh)]
    assert taus == [0.0] * len(taus)


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.wav"), str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err != ""


def assert_input_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_analyze_non_finite_float_wav_exit_2(tmp_path, capsys):
    samples = np.sin(np.arange(4096) / 10.0)[:, np.newaxis]
    samples[1000] = np.nan
    wav = tmp_path / "nan.wav"
    write_float_wav(wav, samples)
    out = tmp_path / "out"
    assert main(["analyze", str(wav), str(out)]) == 2
    assert_input_error(capsys)
    assert not (out / "thresholds.csv").exists()


def test_usage_error_exit_1(capsys):
    assert main(["analyze"]) == 1


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_roundtrip_noise_zero_identity(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=0.25)
    out_wav = tmp_path / "out.wav"
    assert main(["roundtrip", str(wav), str(out_wav), "--noise", "0"]) == 0
    original = read_wav(wav)
    recovered = read_wav(out_wav)
    usable = len(recovered)
    # identity path up to one int16 quantization step
    assert np.max(np.abs(
        recovered.samples[:, 0] - original.samples[:usable, 0]
    )) <= 1e-10 + 2.0 ** -15


def test_roundtrip_noise_one_reports_bands(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=2.0)
    out_wav = tmp_path / "n.wav"
    calls = []
    compute_thresholds = psycho.compute_thresholds
    monkeypatch.setattr(psycho, "compute_thresholds",
                        lambda *a: calls.append(a) or compute_thresholds(*a))
    assert main(["roundtrip", str(wav), str(out_wav), "--noise", "1"]) == 0
    # the noise layer and the band report share one threshold computation
    assert len(calls) == 1
    report = capsys.readouterr().out
    assert "ratio" in report
    assert "AUDIBLE" not in report
    ratios = [float(line.split()[3]) for line in report.splitlines()
              if line.strip() and line.split()[0].isdigit()]
    assert ratios and max(ratios) <= 1.2
    assert out_wav.exists()


def test_roundtrip_48khz_clips_nothing(tmp_path, capsys):
    # the hearing-threshold fit passes full scale near 39 kHz; uncapped, the
    # top band's noise step dwarfed full scale and 97% of samples clipped
    wav = tmp_path / "in.wav"
    write_tone(wav, freq=1000.0, seconds=0.5, amp=0.3, fs=48000)
    out_wav = tmp_path / "out.wav"
    assert main(["roundtrip", str(wav), str(out_wav), "--noise", "1"]) == 0
    original, noisy = read_wav(wav).samples, read_wav(out_wav).samples
    assert np.max(np.abs(noisy)) < 0.9
    rms = np.sqrt(np.mean((noisy - original[:len(noisy)]) ** 2))
    assert rms < 0.1


def test_roundtrip_large_noise_flags_audible(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=0.5)
    out_wav = tmp_path / "loud.wav"
    assert main(["roundtrip", str(wav), str(out_wav), "--noise", "100"]) == 0
    assert "AUDIBLE" in capsys.readouterr().out


def test_roundtrip_unwritable_output_exit_2(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=0.1)
    assert main(["roundtrip", str(wav), str(tmp_path / "no_dir" / "o.wav")]) == 2
    assert_input_error(capsys)


def thresholds_step(amps, partition, alpha=psycho.DEFAULT_ALPHA,
                    db_reference=psycho.DEFAULT_DB_REFERENCE):
    """The quantization step of the amplitudes' own thresholds."""
    thresholds = psycho.compute_thresholds(amps, partition, alpha, db_reference)
    return psycho.quantization_step(thresholds.combined, partition)


def reference_noise_and_report(amps, partition, rng, args, sums):
    """psycho.add_noise_and_report and psychoacoustic_noise as whole-array
    expressions: the bytes the report and the noise must keep."""
    step = thresholds_step(amps, partition, args.alpha, args.db_reference)
    z = rng.standard_normal(amps.shape)
    noisy = amps + z * (args.noise * 0.5 * step)
    added = noisy - amps
    allowance = step / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(allowance > 0, (added / allowance) ** 2, 0.0)
    sums[0] += (added * added).sum(axis=(0, 2))
    sums[1] += normalized.sum(axis=(0, 2))
    return noisy


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("noise", [1.0, 2.5])
def test_noise_report_is_bitwise_the_whole_array_expressions(channels, noise):
    # levels over 12 decades, so that the per-bin sums round by their order;
    # silent blocks under a 1e4 dB reference have a zero allowance (the
    # absolute threshold underflows to 0), which the report counts as 0
    rng = np.random.default_rng(channels)
    bands, blocks = 32, 40
    partition = psycho.bark_partition(FS, bands)
    args = argparse.Namespace(alpha=psycho.DEFAULT_ALPHA, db_reference=1e4,
                              noise=noise)
    fast, slow = np.zeros((2, bands)), np.zeros((2, bands))
    fast_rng, slow_rng = np.random.default_rng(5), np.random.default_rng(5)
    zero_allowance = 0
    for _ in range(2):     # two passes into the same sums
        level = 10.0 ** rng.uniform(-12.0, 0.0, (blocks, 1, channels))
        level[::7] = 0.0
        amps = rng.standard_normal((blocks, bands, channels)) * level
        noisy = psycho.add_noise_and_report(
            amps, psycho.noise_sigma(amps, partition, args.alpha,
                                     args.db_reference),
            args.noise, fast_rng, fast)
        expected = reference_noise_and_report(amps, partition, slow_rng,
                                              args, slow)
        np.testing.assert_array_equal(noisy, expected)
        zero_allowance += np.count_nonzero(
            thresholds_step(amps, partition, args.alpha, 1e4) == 0)
    np.testing.assert_array_equal(fast, slow)
    assert zero_allowance >= 2 * 6 * bands * channels
    assert np.all(np.isfinite(fast))


def whole_track_roundtrip(wav, out_wav, noise, seed, bands):
    """roundtrip before it ran in passes: one forward, noise and inverse over
    the whole track, with the band report from whole-track means. Returns
    the band table as printed."""
    buf = read_wav(wav)
    usable = len(buf) // bands * bands
    buf = AudioBuffer(buf.samples[:usable], buf.sample_rate_hz)
    amps = mdct_forward_fast(buf, bands).amplitudes
    partition = psycho.bark_partition(buf.sample_rate_hz, bands)
    allowance = thresholds_step(amps, partition) / 2.0
    noisy = psycho.psychoacoustic_noise(amps, allowance, scale=noise,
                                        rng_seed=seed)
    added = noisy - amps
    pool = partition.pooling_matrix()
    bins_per_band = pool.sum(axis=0)
    mean_power = np.moveaxis(added * added, 2, 0).mean(axis=(0, 1)) @ pool
    mean_power /= np.maximum(bins_per_band, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(allowance > 0, (added / allowance) ** 2, 0.0)
    ratio = (
        np.moveaxis(normalized, 2, 0).mean(axis=(0, 1)) @ pool
    ) / np.maximum(bins_per_band, 1)
    write_wav(mdct_inverse(MdctTensor(noisy, buf.sample_rate_hz)), out_wav)
    lines = ["band     mid_hz   mean_noise_power   noise/threshold ratio"]
    for j in range(partition.band_count):
        flag = "  AUDIBLE" if ratio[j] > 2.0 else ""
        lines.append(f"{j:4d} {partition.band_mid_hz[j]:10.1f}   "
                     f"{mean_power[j]:.6e}   {ratio[j]:12.4f}{flag}")
    return "\n".join(lines) + "\n"


def check_chunked_roundtrip(tmp, chunk_blocks, blocks, channels, noise, seed,
                            bands=16, extra_samples=5):
    """Run roundtrip in passes of chunk_blocks blocks on a seeded signal of
    `blocks` blocks (plus a tail it trims) and compare its WAV bytes and band
    table with the whole-track chain."""
    rng = np.random.default_rng(seed)
    samples = 0.3 * rng.standard_normal((blocks * bands + extra_samples, channels))
    wav = os.path.join(tmp, "in.wav")
    write_wav(AudioBuffer(samples, FS), wav)
    chunked, whole = os.path.join(tmp, "chunked.wav"), os.path.join(tmp, "whole.wav")
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "PASS_BLOCKS", chunk_blocks)
        mp.setenv("OCTAUDIO_VERBOSE", "0")
        assert main(["roundtrip", wav, chunked, "--noise", str(noise),
                     "--seed", str(seed), "--bands", str(bands)]) == 0
    table = whole_track_roundtrip(wav, whole, noise, seed, bands)
    assert out.getvalue() == table
    with open(chunked, "rb") as a, open(whole, "rb") as b:
        assert a.read() == b.read()


K = 4   # roundtrip's blocks per pass in the grid below


@pytest.mark.parametrize("blocks", [1, 2, K - 1, K, K + 1, 2 * K + 3])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("noise", [0.0, 1.0, 100.0])
def test_roundtrip_chunk_boundaries_match_whole_track(tmp_path, blocks,
                                                      channels, noise):
    check_chunked_roundtrip(str(tmp_path), K, blocks, channels, noise, seed=3)


@pytest.mark.deep
@settings(deadline=None)
@given(chunk_blocks=st.integers(1, 9), blocks=st.integers(1, 30),
       channels=st.sampled_from([1, 2]),
       noise=st.sampled_from([0.0, 1.0, 2.5, 100.0]),
       seed=st.integers(0, 2 ** 32 - 1), bands=st.sampled_from([8, 16, 32]),
       extra_samples=st.integers(0, 7))
def test_chunked_roundtrip_matches_whole_track(chunk_blocks, blocks, channels,
                                               noise, seed, bands, extra_samples):
    with tempfile.TemporaryDirectory() as tmp:
        check_chunked_roundtrip(tmp, chunk_blocks, blocks, channels, noise,
                                seed, bands, extra_samples)


def test_roundtrip_thresholds_once_per_pass(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=2.0)
    blocks = int(FS * 2.0) // 128
    monkeypatch.setattr(cli, "PASS_BLOCKS", 100)
    calls = []
    compute_thresholds = psycho.compute_thresholds
    monkeypatch.setattr(psycho, "compute_thresholds",
                        lambda *a: calls.append(a) or compute_thresholds(*a))
    assert main(["roundtrip", str(wav), str(tmp_path / "o.wav")]) == 0
    # each pass's noise and band report share one threshold computation
    assert len(calls) == math.ceil(blocks / 100) == 4


def roundtrip_peak_bytes(tmp_path, seconds):
    """tracemalloc peak of one roundtrip of a seeded stereo WAV."""
    rng = np.random.default_rng(0)
    wav, out_wav = tmp_path / f"in{seconds}.wav", tmp_path / f"out{seconds}.wav"
    write_wav(AudioBuffer(0.1 * rng.standard_normal((FS * seconds, 2)), FS), wav)
    tracemalloc.start()
    try:
        assert main(["roundtrip", str(wav), str(out_wav)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_roundtrip_peak_grows_with_input_and_output_only(tmp_path, capsys):
    # the (T, C) float64 input and output grow with the track (2x its growth
    # in bytes, 2.25x while read_wav converts); nothing else should
    growth = roundtrip_peak_bytes(tmp_path, 40) - roundtrip_peak_bytes(tmp_path, 10)
    input_growth = FS * (40 - 10) * 2 * 8
    assert growth <= 3 * input_growth, growth / input_growth


ANALYZE_OUTPUTS = ("spectrogram.pgm", "signed_amplitudes.pgm", "thresholds.csv",
                   "tonality.csv", "mdct.bin")


def whole_track_analyze(wav, out_dir, bands):
    """analyze before it ran in passes: one forward transform of the whole
    track, from which every output is written, the CSVs row by row through
    csv.writer."""
    buf = read_wav(wav)
    usable = len(buf) // bands * bands
    buf = AudioBuffer(buf.samples[:usable], buf.sample_rate_hz)
    tensor = mdct_forward_fast(buf, bands)
    os.makedirs(out_dir, exist_ok=True)
    spectral.to_db_image(spectral.spectrogram(tensor.amplitudes),
                         os.path.join(out_dir, "spectrogram.pgm"))
    spectral.signed_db_image(tensor.amplitudes,
                             os.path.join(out_dir, "signed_amplitudes.pgm"))
    thresholds = csv_writer_thresholds(
        tensor, os.path.join(out_dir, "thresholds.csv"))
    tau = thresholds.tonality_per_block.mean(axis=1)
    block_seconds = bands / tensor.sample_rate_hz
    with open(os.path.join(out_dir, "tonality.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)     # the bytes write_tonality_csv must match
        writer.writerow(["block_index", "time_seconds", "tau"])
        for m, tau_m in enumerate(tau):
            writer.writerow([m, f"{m * block_seconds:.6f}", f"{tau_m:.9f}"])
    save_tensor(tensor, os.path.join(out_dir, "mdct.bin"))


def check_chunked_analyze(tmp, chunk_blocks, blocks, channels, seed, bands=16,
                          extra_samples=5, level=0.3):
    """Run analyze in passes of chunk_blocks blocks on a seeded signal of
    `blocks` blocks (plus a tail it trims) and compare its five files with
    the whole-track chain's, byte for byte."""
    rng = np.random.default_rng(seed)
    samples = level * rng.standard_normal((blocks * bands + extra_samples,
                                           channels))
    wav = os.path.join(tmp, "in.wav")
    write_wav(AudioBuffer(samples, FS), wav)
    check_analyze_matches_whole_track(tmp, wav, chunk_blocks, bands)


def check_analyze_matches_whole_track(tmp, wav, chunk_blocks, bands):
    """analyze in passes of chunk_blocks blocks writes the whole-track
    chain's five files, byte for byte."""
    chunked, whole = os.path.join(tmp, "chunked"), os.path.join(tmp, "whole")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "PASS_BLOCKS", chunk_blocks)
        mp.setenv("OCTAUDIO_VERBOSE", "0")
        assert main(["analyze", wav, chunked, "--bands", str(bands)]) == 0
    whole_track_analyze(wav, whole, bands)
    for name in ANALYZE_OUTPUTS:
        with open(os.path.join(chunked, name), "rb") as a, \
                open(os.path.join(whole, name), "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("blocks", [1, 2, K - 1, K, K + 1, 2 * K + 3])
@pytest.mark.parametrize("channels", [1, 2])
def test_analyze_chunk_boundaries_match_whole_track(tmp_path, blocks, channels):
    check_chunked_analyze(str(tmp_path), K, blocks, channels, seed=3)


@pytest.mark.deep
@settings(deadline=None)
@given(chunk_blocks=st.integers(1, 9), blocks=st.integers(1, 30),
       channels=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
       bands=st.sampled_from([8, 16, 32]), extra_samples=st.integers(0, 7),
       level=st.sampled_from([0.0, 1e-4, 0.3]))
@example(chunk_blocks=2, blocks=5, channels=2, seed=0, bands=8,
         extra_samples=3, level=0.0)
@example(chunk_blocks=1, blocks=12, channels=2, seed=0, bands=8,
         extra_samples=0, level=1e-4)
def test_chunked_analyze_matches_whole_track(chunk_blocks, blocks, channels,
                                             seed, bands, extra_samples, level):
    # level 0.0 is an all-zero track: both images take the zero-peak branch.
    # Chunk size 1 asks for one-block passes, whose thresholds would differ
    # in the last bit (gemv); _pass_bounds makes none.
    with tempfile.TemporaryDirectory() as tmp:
        check_chunked_analyze(tmp, chunk_blocks, blocks, channels, seed, bands,
                              extra_samples, level)


@pytest.mark.parametrize("channels", [1, 2])    # read_wav's channel counts
def test_analyze_silent_and_near_subnormal_blocks_match_whole_track(
        tmp_path, channels):
    # Digitally silent stretches, where I_mask is 0 and combined is I_abs,
    # and stretches near 1e-40 full scale (float32 subnormals), where I_mask
    # reaches about e-89: the zero and far-exponent cases of the formatter
    bands = 16
    levels = np.repeat([0.3, 0.0, 1e-40, 0.3, 3e-41, 0.0, 1e-3, 1e-40], 5)
    rng = np.random.default_rng(channels)
    samples = (np.repeat(levels, bands)[:, np.newaxis]
               * rng.standard_normal((len(levels) * bands, channels)))
    wav = tmp_path / "in.wav"
    write_float_wav(wav, samples)
    check_analyze_matches_whole_track(str(tmp_path), str(wav), 7, bands)
    with open(tmp_path / "chunked" / "thresholds.csv") as fh:
        rows = list(csv.DictReader(fh))
    silent = [r for r in rows if r["I_mask"] == "0.000000000000e+00"]
    assert silent and all(r["combined"] == r["I_abs"] for r in silent)
    assert min(float(r["I_mask"]) for r in rows if r not in silent) < 1e-85


def test_analyze_tonality_once_per_pass(tmp_path, monkeypatch):
    calls = []
    tonality = psycho.tonality

    def counted(amplitudes):
        calls.append(amplitudes.shape)
        return tonality(amplitudes)

    monkeypatch.setattr(psycho, "tonality", counted)
    monkeypatch.setattr(spectral, "tonality", counted)
    monkeypatch.setattr(cli, "PASS_BLOCKS", 100)
    wav = tmp_path / "t.wav"
    write_tone(wav, seconds=2.0)
    blocks = int(FS * 2.0) // 128
    assert main(["analyze", str(wav), str(tmp_path / "o")]) == 0
    # each pass's thresholds and tonality.csv share one tonality computation
    assert len(calls) == math.ceil(blocks / 100) == 4


def analyze_peak_bytes(tmp_path, seconds):
    """tracemalloc peak of one analyze of a seeded stereo WAV."""
    rng = np.random.default_rng(0)
    wav, out = tmp_path / f"in{seconds}.wav", tmp_path / f"out{seconds}"
    write_wav(AudioBuffer(0.1 * rng.standard_normal((FS * seconds, 2)), FS), wav)
    tracemalloc.start()
    try:
        assert main(["analyze", str(wav), str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_peak_grows_with_input_only(tmp_path, capsys):
    # the (T, C) float64 input grows with the track (1.25x its growth in
    # bytes while read_wav converts), the (N, M) uint8 images by 1/16 of it
    # in stereo; nothing else should
    growth = analyze_peak_bytes(tmp_path, 40) - analyze_peak_bytes(tmp_path, 10)
    input_growth = FS * (40 - 10) * 2 * 8
    assert growth <= 1.5 * input_growth, growth / input_growth


def test_reduce_level0_matches_analyze(tmp_path):
    wav = tmp_path / "t.wav"
    write_tone(wav, seconds=0.5)
    out_a = tmp_path / "a"
    out_r = tmp_path / "r"
    assert main(["analyze", str(wav), str(out_a)]) == 0
    assert main(["reduce", str(wav), str(out_r), "--folds", "0"]) == 0
    a = read_pgm(out_a / "spectrogram.pgm")
    b = read_pgm(out_r / "level_0.pgm")
    np.testing.assert_array_equal(a, b)


def test_reduce_emits_all_levels(tmp_path):
    wav = tmp_path / "t.wav"
    write_tone(wav, freq=1760.0, seconds=0.5)
    out = tmp_path / "r"
    assert main(["reduce", str(wav), str(out), "--folds", "2"]) == 0
    shapes = [read_pgm(out / f"level_{l}.pgm").shape for l in range(3)]
    assert shapes[0][0] == 128 and shapes[1][0] == 64 and shapes[2][0] == 32


def test_reduce_too_many_folds_exit_3(tmp_path, capsys):
    wav = tmp_path / "t.wav"
    write_tone(wav, seconds=0.05)   # ~1100 samples: no room for 2^10 blocks
    assert main(["reduce", str(wav), str(tmp_path / "r"), "--folds", "10"]) == 3
    assert capsys.readouterr().err != ""
    # 2^100000 used to size the read, and its error message hit Python's
    # limit on int-to-text conversion
    assert main(["reduce", str(wav), str(tmp_path / "r"), "--folds", "100000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and err.count("\n") == 1
    assert "halve" in err
    # 2^(10^9) alone is a 125 MB integer: folds is checked before any power
    tracemalloc.start()
    try:
        assert main(["reduce", str(wav), str(tmp_path / "r"),
                     "--folds", "1000000000"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and err.count("\n") == 1
    assert peak < 10 * 2 ** 20, peak


def whole_track_reduce(wav, out_dir, bands, folds):
    """reduce before it ran in passes: the forward transform, spectrogram
    and every level of the whole track at once, each level drawn whole."""
    buf = read_wav(wav)
    chunk = bands * 2 ** folds
    usable = len(buf) // chunk * chunk
    tensor = mdct_forward_fast(
        AudioBuffer(buf.samples[:usable], buf.sample_rate_hz), bands)
    levels = spectral.reduce_spectrogram(
        spectral.spectrogram(tensor.amplitudes), folds)
    os.makedirs(out_dir, exist_ok=True)
    for level, values in enumerate(levels):
        spectral.write_pgm(
            spectral.db_pixels(values.mean(axis=2)),
            os.path.join(out_dir, f"level_{level}.pgm"))


def check_chunked_reduce(tmp, chunk_blocks, blocks, channels, folds, seed,
                         bands=16, extra_samples=5, level=0.3):
    """Run reduce in passes of chunk_blocks blocks (rounded up to whole
    2^folds units) on a seeded signal of `blocks` blocks plus a tail, and
    compare its level_*.pgm bytes, or its exit 3, with the whole-track
    chain's."""
    rng = np.random.default_rng(seed)
    samples = level * rng.standard_normal((blocks * bands + extra_samples,
                                           channels))
    wav = os.path.join(tmp, "in.wav")
    write_wav(AudioBuffer(samples, FS), wav)
    chunked, whole = os.path.join(tmp, "chunked"), os.path.join(tmp, "whole")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "PASS_BLOCKS", chunk_blocks)
        mp.setenv("OCTAUDIO_VERBOSE", "0")
        code = main(["reduce", wav, chunked, "--bands", str(bands),
                     "--folds", str(folds)])
    if bands < 2 ** (folds + 1):     # the last fold would split a band
        with pytest.raises(ShapeError):
            whole_track_reduce(wav, whole, bands, folds)
        assert code == 3
        return
    assert code == 0
    whole_track_reduce(wav, whole, bands, folds)
    assert sorted(os.listdir(chunked)) == sorted(os.listdir(whole))
    assert len(os.listdir(whole)) == folds + 1
    for name in os.listdir(whole):
        with open(os.path.join(chunked, name), "rb") as a, \
                open(os.path.join(whole, name), "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("folds", [0, 1, 2, 3])
@pytest.mark.parametrize("chunk_blocks", [1, 3, K])
@pytest.mark.parametrize("blocks", [8, 8 * K + 5])
@pytest.mark.parametrize("channels", [1, 2])
def test_reduce_pass_boundaries_match_whole_track(tmp_path, folds, chunk_blocks,
                                                  blocks, channels):
    check_chunked_reduce(str(tmp_path), chunk_blocks, blocks, channels, folds,
                         seed=3)


@pytest.mark.deep
@settings(deadline=None)
@given(chunk_blocks=st.integers(1, 9), folds=st.integers(0, 3),
       extra_blocks=st.integers(0, 30), channels=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1), bands=st.sampled_from([8, 16, 32]),
       extra_samples=st.integers(0, 7),
       level=st.sampled_from([0.0, 1e-4, 0.3]))
@example(chunk_blocks=1, folds=3, extra_blocks=9, channels=2, seed=0,
         bands=16, extra_samples=3, level=0.0)
def test_chunked_reduce_matches_whole_track(chunk_blocks, folds, extra_blocks,
                                            channels, seed, bands,
                                            extra_samples, level):
    # Pass sizes that 2^folds does not divide are rounded up to a multiple
    # of it; level 0.0 is an all-zero track, drawn through the zero peak.
    with tempfile.TemporaryDirectory() as tmp:
        check_chunked_reduce(tmp, chunk_blocks, 2 ** folds + extra_blocks,
                             channels, folds, seed, bands, extra_samples, level)


def reduce_peak_bytes(tmp_path, seconds):
    """tracemalloc peak of one reduce --folds 2 of a seeded stereo WAV."""
    rng = np.random.default_rng(0)
    wav, out = tmp_path / f"in{seconds}.wav", tmp_path / f"out{seconds}"
    write_wav(AudioBuffer(0.1 * rng.standard_normal((FS * seconds, 2)), FS), wav)
    tracemalloc.start()
    try:
        assert main(["reduce", str(wav), str(out), "--folds", "2"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reduce_peak_grows_with_input_and_levels_only(tmp_path, capsys):
    # the (T, C) float64 input and the levels' float64 channel-mean grids
    # grow with the track, (1 + 1/4 + 1/16) / 2 = 0.66x the input in stereo;
    # nothing else should (1.88x measured, the 10 s track's last pass being
    # shorter than a full one)
    growth = reduce_peak_bytes(tmp_path, 40) - reduce_peak_bytes(tmp_path, 10)
    input_growth = FS * (40 - 10) * 2 * 8
    assert growth <= 2 * input_growth, growth / input_growth


def pass_arrays(value):
    """The memory owners of the arrays in a pass's result: an array, or the
    arrays in a list or in a dataclass's fields."""
    if isinstance(value, np.ndarray):
        yield value if value.base is None else value.base
    elif isinstance(value, list):
        for item in value:
            yield from pass_arrays(item)
    elif dataclasses.is_dataclass(value):
        for item in vars(value).values():
            yield from pass_arrays(item)


# where each stage a DSP command runs is called: the helper thread computes
# a pass's independent stage, the main thread its in-order stage
PASS_STAGES = {
    "analyze": {(mdct, "mdct_forward_fast"): "helper",
                (psycho, "compute_thresholds"): "helper"},
    "roundtrip": {(mdct, "mdct_forward_fast"): "helper",
                  (psycho, "noise_sigma"): "helper",
                  (psycho, "compute_thresholds"): "helper",
                  (psycho, "add_noise_and_report"): "main",
                  (mdct, "mdct_inverse_into"): "main"},
    "reduce": {(mdct, "mdct_forward_fast"): "helper",
               (spectral, "spectrogram"): "helper",
               (spectral, "reduce_spectrogram"): "helper"},
}


def thread_role():
    return "main" if threading.current_thread() is threading.main_thread() \
        else "helper"


@pytest.mark.parametrize("command", ["analyze", "roundtrip", "reduce"])
def test_pass_loops_free_each_pass_before_the_next(tmp_path, monkeypatch,
                                                   command):
    # The helper thread computes pass k + 1's stage while the main thread
    # finishes pass k, so a loop holds two passes: when pass k + 1's forward
    # transform starts, every array made for pass k - 1 or earlier (its
    # amplitudes, thresholds, sigma, spectrogram levels and noisy copy) is
    # dead. Whether main has made pass k's arrays by then depends on timing,
    # so no count of live arrays is asserted. A forward's arrays are tagged
    # with its pass, any other stage's with the pass of the tracked array it
    # was given. The helper runs one pass at a time. Each stage the command
    # runs is called once per pass, on the thread it belongs to, so a patch
    # the command no longer calls fails the test instead of checking nothing.
    lock = threading.Lock()
    made = []           # (weak reference to an array's owner, its pass)
    alive_at_forward = []   # per pass: the passes of the arrays then alive
    calls, roles, busy, overlaps = {}, {}, {}, []

    def pass_of(args):
        for owner in pass_arrays(list(args)):
            for ref, k in made:
                if ref() is owner:
                    return k
        raise AssertionError("a stage was given no array of a pass")

    def track(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            role = thread_role()
            with lock:
                calls[name] = calls.get(name, 0) + 1
                roles.setdefault(name, set()).add(role)
                if name == "mdct_forward_fast":
                    k = len(alive_at_forward)
                    alive_at_forward.append(
                        {p for ref, p in made if ref() is not None})
                else:
                    k = pass_of(args)
                if role == "helper":
                    busy[k] = busy.get(k, 0) + 1
                    if sum(n > 0 for n in busy.values()) > 1:
                        overlaps.append(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                if role == "helper":
                    with lock:
                        busy[k] -= 1
            with lock:
                made.extend((weakref.ref(a), k) for a in pass_arrays(result))
            return result
        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(cli, "PASS_BLOCKS", 4)    # 15 passes
    for module, name in {stage for run in PASS_STAGES.values()
                         for stage in run}:
        track(module, name)
    wav = tmp_path / "in.wav"
    rng = np.random.default_rng(0)
    write_wav(AudioBuffer(0.1 * rng.standard_normal((16 * 60, 2)), FS), wav)
    out = tmp_path / ("o.wav" if command == "roundtrip" else "o")
    threads = threading.active_count()
    assert main([command, str(wav), str(out), "--bands", "16"]) == 0
    assert threading.active_count() == threads      # the helper is joined
    assert len(alive_at_forward) == 15 and made
    stale = [(k, sorted(p for p in alive if p < k - 1))
             for k, alive in enumerate(alive_at_forward)]
    assert stale == [(k, []) for k in range(15)]
    assert overlaps == []
    assert calls == {name: 15 for _, name in PASS_STAGES[command]}
    assert roles == {name: {role} for (_, name), role
                     in PASS_STAGES[command].items()}


@pytest.mark.parametrize("command, module, name", [
    ("analyze", mdct, "mdct_forward_fast"),
    ("roundtrip", mdct, "mdct_forward_fast"),
    ("reduce", mdct, "mdct_forward_fast"),
    ("analyze", psycho, "write_threshold_rows"),
    ("roundtrip", mdct, "mdct_inverse_into"),
])
@pytest.mark.parametrize("error, code, prefix", [
    (MemoryError, 3, "compute error: "), (OSError, 2, "input error: ")])
def test_a_stage_error_on_pass_2_exits_with_its_code(
        tmp_path, capsys, monkeypatch, command, module, name, error, code,
        prefix):
    # a forward raises on the helper thread while main works on pass 1; the
    # writes and the inverse raise on main while the helper works on pass 3.
    # Either way main exits with the error's code and one stderr line, and
    # the helper is joined first.
    fn, raised = getattr(module, name), []

    def failing(*args, **kwargs):
        if len(raised) == 1:
            raised.append(thread_role())
            raise error("stage failed")
        raised.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    monkeypatch.setattr(cli, "PASS_BLOCKS", 4)
    wav = tmp_path / "in.wav"
    rng = np.random.default_rng(0)
    write_wav(AudioBuffer(0.1 * rng.standard_normal((16 * 60, 2)), FS), wav)
    out = tmp_path / ("o.wav" if command == "roundtrip" else "o")
    threads = threading.active_count()
    assert main([command, str(wav), str(out), "--bands", "16"]) == code
    assert threading.active_count() == threads
    assert raised[1] == PASS_STAGES[command].get((module, name), "main")
    err = capsys.readouterr().err
    assert err == prefix + "stage failed\n"


@pytest.mark.parametrize("command, code, err", [
    ("analyze", 0, ""),
    ("roundtrip", 3, "compute error: tensor amplitudes must be finite\n")])
def test_helper_stages_run_under_the_callers_error_state(tmp_path, capsys,
                                                         command, code, err):
    # --alpha 1e-300 overflows the masking powers, which main's np.errstate
    # ignores (pytest makes a warning an error) and the finiteness checks
    # answer; a thread starts with numpy's default error state, so the
    # helper must take main's
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=1.0)
    out = tmp_path / ("o.wav" if command == "roundtrip" else "o")
    assert main([command, str(wav), str(out), "--alpha", "1e-300"]) == code
    assert capsys.readouterr().err == err


def test_shapes_published_95s_model(capsys):
    assert main(["shapes", "--blocks", "6", "--seed", "4x2", "--latent", "512"]) == 0
    out = capsys.readouterr().out
    assert "16384 x 128 x 2" in out
    assert "generator parameters" in out


def test_shapes_published_5s_model(capsys):
    assert main(["shapes", "--blocks", "5", "--seed", "1x4", "--latent", "512"]) == 0
    assert "1024 x 128 x 2" in capsys.readouterr().out


def test_shapes_zero_blocks_echoes_seed(capsys):
    assert main(["shapes", "--blocks", "0", "--seed", "4x2", "--latent", "16",
                 "--channels", "8"]) == 0
    out = capsys.readouterr().out
    assert "seed" in out and "4 x 2 x 8" in out


def test_shapes_bad_seed_exit_1(capsys):
    assert main(["shapes", "--seed", "banana"]) == 1


def test_shapes_parameter_count_is_exact(capsys):
    # 10^16 latents x 1024 seed units is past int64; the other generator
    # parameters of this model number 218,434
    assert main(["shapes", "--latent", "10000000000000000", "--blocks", "1"]) == 0
    assert ("generator parameters:     10,240,000,000,000,218,434\n"
            in capsys.readouterr().out)


def test_shapes_too_many_blocks_exit_1(capsys):
    assert main(["shapes", "--blocks", "40"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def write_toy_config(path, out_channels=1, iterations=4):
    path.write_text(f"""
[audio]
sample_rate_hz = 2048

[model]
latent_dim = 6
num_blocks = 1
seed_blocks = 2
seed_bands = 4
channels = 4, 3
output_channels = {out_channels}

[train]
iterations = {iterations}
batch_size = 2
seed = 5
noise_scale = 1.0

[data]
source = tones
count = 4
""")


def test_train_and_sample_end_to_end(tmp_path, capsys):
    config = tmp_path / "toy.ini"
    write_toy_config(config)
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--out-dir", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.bin").exists()
    with open(run_dir / "losses.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {
        "iteration", "loss_D", "loss_G", "wasserstein_estimate", "gen_tonality"
    }

    samples = tmp_path / "samples"
    assert main(["sample", str(run_dir / "checkpoint.bin"), str(samples),
                 "--count", "3"]) == 0
    wavs = sorted(os.listdir(samples))
    assert wavs == ["sample_000.wav", "sample_001.wav", "sample_002.wav"]
    buf = read_wav(samples / wavs[0])
    assert buf.sample_rate_hz == 2048
    assert len(buf) == 8 * 8      # blocks x bands of the toy model


def test_train_checkpoint_every(tmp_path, capsys):
    config = tmp_path / "toy.ini"
    write_toy_config(config, iterations=4)
    config.write_text(config.read_text().replace(
        "[train]", "[train]\ncheckpoint_every = 2"))
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--out-dir", str(run_dir)]) == 0
    assert sorted(p.name for p in run_dir.glob("checkpoint*.bin")) == [
        "checkpoint.bin", "checkpoint_000002.bin", "checkpoint_000004.bin"]
    for it in (2, 4):
        assert load_checkpoint(run_dir / f"checkpoint_{it:06d}.bin")[2] == it
    assert ((run_dir / "checkpoint_000004.bin").read_bytes()
            == (run_dir / "checkpoint.bin").read_bytes())
    # a negative checkpoint_every is a case of test_train_bad_config_exit_1


def test_train_batch_of_one_stays_finite(tmp_path, capsys):
    # minibatch stddev has zero spread at batch 1; the penalty stays finite
    config = tmp_path / "toy.ini"
    write_toy_config(config, iterations=3)
    config.write_text(config.read_text().replace("batch_size = 2", "batch_size = 1"))
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--out-dir", str(run_dir)]) == 0
    assert capsys.readouterr().err == ""
    with open(run_dir / "losses.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def write_toy_checkpoint(path, drop=(), seed=0, channels=(4, 3),
                         output_channels=1):
    cfg = ModelConfig(latent_dim=6, num_blocks=len(channels) - 1, seed_blocks=2,
                      seed_bands=4, channels=channels,
                      output_channels=output_channels)
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(seed))
    params = {k: v for k, v in params.items() if k not in drop}
    save_checkpoint(path, params, cfg, extra={"sample_rate_hz": 2048})
    return path.read_bytes()


@pytest.mark.parametrize("cut", [
    lambda blob: b"MP3N\x01\x00\x00\x00",
    lambda blob: blob[:len(blob) // 2],
    lambda blob: blob[:40],
    lambda blob: blob + b"\x00",
    lambda blob: blob[:-8] + struct.pack("<d", np.nan),
], ids=["header", "half", "metadata", "trailing-byte", "nan-weight"])
def test_sample_malformed_checkpoint_exit_2(tmp_path, capsys, cut):
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(cut(write_toy_checkpoint(checkpoint)))
    assert main(["sample", str(checkpoint), str(tmp_path / "s")]) == 2
    assert_input_error(capsys)


def test_sample_checkpoint_not_matching_a_model_exit_2(tmp_path, capsys):
    checkpoint = tmp_path / "checkpoint.bin"
    blob = write_toy_checkpoint(checkpoint)
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    for meta in (b"[1, 2]", b'{"model": {"latent_dim": 6}}',
                 b'{"model": {"channels": "ab"}}', b"\xff",
                 b'{"model": {"num_blocks": 1000000000}}'):
        checkpoint.write_bytes(blob[:8] + struct.pack("<I", len(meta)) + meta
                               + blob[12 + meta_len:])
        assert main(["sample", str(checkpoint), str(tmp_path / "s")]) == 2
        assert_input_error(capsys)
    write_toy_checkpoint(checkpoint, drop={"g.out.W"})
    assert main(["sample", str(checkpoint), str(tmp_path / "s")]) == 2
    assert_input_error(capsys)


def test_train_bad_config_exit_1(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[model]\nnum_blocks = banana\n")
    assert main(["train", str(config)]) == 1
    config.write_text("[model]\nmystery_key = 3\n")
    assert main(["train", str(config)]) == 1
    capsys.readouterr()
    config.write_bytes(b"\xff\xfe[model]\n")
    assert main(["train", str(config)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    # training values are checked when the file is read, not mid-training
    for old, new in [
        ("[train]", "[train]\nlearning_rate = nan"),
        ("[train]", "[train]\ngp_lambda = inf"),
        ("[train]", "[train]\ndrift_epsilon = nan"),
        ("noise_scale = 1.0", "noise_scale = inf"),
        ("[audio]", "[audio]\nalpha = 0"),
        ("[audio]", "[audio]\nalpha = nan"),
        ("[audio]", "[audio]\ndb_reference = inf"),
        ("sample_rate_hz = 2048", "sample_rate_hz = 99999999999"),
        ("[train]", "[train]\ncheckpoint_every = -1"),
        ("seed_bands = 4", "seed_bands = 6"),   # 12 output bands
        ("seed_bands = 4", "seed_bands = 2"),   # 4 output bands
    ]:
        write_toy_config(config)
        config.write_text(config.read_text().replace(old, new))
        run_dir = tmp_path / "run"
        assert main(["train", str(config), "--out-dir", str(run_dir)]) == 1, new
        assert capsys.readouterr().err.startswith("config error: "), new
        assert not run_dir.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_config_data_count_below_one_exit_1_before_any_work(tmp_path, capsys,
                                                            count):
    config = tmp_path / "c.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace("count = 4",
                                                 f"count = {count}"))
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--out-dir", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and "[data] count" in err
    assert err.count("\n") == 1
    assert not run_dir.exists()


@pytest.mark.parametrize("line, message", [
    ("beta1 = 1.5", "beta1 must lie in [0, 1)"),
    ("beta2 = -0.1", "beta2 must lie in [0, 1)"),
    ("seed = -1", "seed must be >= 0"),
])
def test_config_error_names_the_key_as_the_file_writes_it(tmp_path, capsys,
                                                          line, message):
    # TrainConfig knows these as adam_beta1, adam_beta2 and rng_seed; a
    # negative seed used to reach numpy and exit 3 as a compute error
    config = tmp_path / "c.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace("seed = 5", line))
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--out-dir", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}\n"
    assert not run_dir.exists()


def test_train_out_of_memory_is_compute_error(tmp_path, capsys):
    # a batch of 10^15 asks numpy for petabytes, more than any address
    # space, so no overcommit policy grants it
    config = tmp_path / "big.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace(
        "batch_size = 2", "batch_size = 1000000000000000"))
    assert main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and err.count("\n") == 1
    # it failed before its first row: no run directory, no empty losses.csv
    assert not (tmp_path / "run").exists()


def test_train_missing_config_exit_1(tmp_path):
    assert main(["train", str(tmp_path / "none.ini")]) == 1


def test_wav_dataset_downmixes_stereo_to_the_channel_mean(tmp_path):
    # a mono model trains on the channel mean of a stereo WAV, in the bytes
    # of numpy's mean over the channel axis
    (tmp_path / "wavs").mkdir()
    wav = tmp_path / "wavs" / "a.wav"
    samples = 0.3 * np.random.default_rng(2).standard_normal((300, 2))
    write_wav(AudioBuffer(samples, 2048), wav)
    config = tmp_path / "c.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace(
        "source = tones", f"source = wavs\npath = {tmp_path / 'wavs'}"))
    app = load_config(config)
    tensors = datasets.wav_dataset(app.data_path, app.sample_rate_hz,
                                   *app.model.output_shape)
    mono = read_wav(wav).samples.mean(axis=1, keepdims=True)
    m, n, _ = app.model.output_shape
    assert len(tensors) == len(mono) // (m * n) > 1
    for i, tensor in enumerate(tensors):
        piece = AudioBuffer(mono[i * m * n:(i + 1) * m * n], 2048)
        assert (tensor.amplitudes.tobytes()
                == mdct_forward_fast(piece, n).amplitudes.tobytes())


def write_wavs_config(tmp_path, out_channels=1):
    """The toy config, reading its corpus from tmp_path / "wavs"."""
    (tmp_path / "wavs").mkdir()
    config = tmp_path / "c.ini"
    write_toy_config(config, out_channels=out_channels)
    config.write_text(config.read_text().replace(
        "source = tones", f"source = wavs\npath = {tmp_path / 'wavs'}"))
    return config


@pytest.mark.parametrize("name, samples", [
    ("notes.txt", 64),      # no .wav file
    ("short.wav", 63),      # one sample short of the toy model's segment
])
def test_wav_corpus_without_a_segment_exit_1_before_any_work(tmp_path, capsys,
                                                            name, samples):
    config = write_wavs_config(tmp_path)
    write_wav(AudioBuffer(np.full(samples, 0.25), 2048), tmp_path / "wavs" / name)
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--out-dir", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not run_dir.exists()


def test_wav_corpus_repeats_a_mono_file_on_every_channel(tmp_path):
    config = write_wavs_config(tmp_path, out_channels=2)
    wav = tmp_path / "wavs" / "mono.wav"
    write_wav(AudioBuffer(0.3 * np.random.default_rng(4).standard_normal(200),
                          2048), wav)
    app = load_config(config)
    tensors = datasets.wav_dataset(app.data_path, app.sample_rate_hz,
                                   *app.model.output_shape)
    mono = read_wav(wav).samples
    m, n, _ = app.model.output_shape
    assert len(tensors) == len(mono) // (m * n) > 1
    for i, tensor in enumerate(tensors):
        piece = AudioBuffer(mono[i * m * n:(i + 1) * m * n], 2048)
        expected = mdct_forward_fast(piece, n).amplitudes[:, :, 0].tobytes()
        for c in range(2):
            assert tensor.amplitudes[:, :, c].tobytes() == expected


def test_wav_corpus_resamples_to_the_model_rate(tmp_path):
    config = write_wavs_config(tmp_path)
    wav = tmp_path / "wavs" / "fast.wav"
    write_wav(AudioBuffer(0.3 * np.random.default_rng(5).standard_normal(420),
                          4096), wav)
    app = load_config(config)
    tensors = datasets.wav_dataset(app.data_path, app.sample_rate_hz,
                                   *app.model.output_shape)
    resampled = resample(read_wav(wav), 2048).samples
    m, n, _ = app.model.output_shape
    assert len(tensors) == len(resampled) // (m * n) > 1
    for i, tensor in enumerate(tensors):
        piece = AudioBuffer(resampled[i * m * n:(i + 1) * m * n], 2048)
        assert (tensor.amplitudes.tobytes()
                == mdct_forward_fast(piece, n).amplitudes.tobytes())


def test_config_wavs_source_needs_path(tmp_path, capsys):
    config = tmp_path / "c.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace("source = tones", "source = wavs"))
    with pytest.raises(ConfigError, match="path"):
        load_config(config)
    assert main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "{dir}", "{out}"],                       # IsADirectoryError
    ["analyze", "{wav}", "{file}"],                     # FileExistsError
    ["reduce", "{wav}", "{file}"],
    ["sample", "{checkpoint}", "{file}"],
    ["train", "{config}", "--out-dir", "{file}"],
    ["analyze", "{wav}", "{file}/sub"],                 # NotADirectoryError
    ["train", "{wavs_config}", "--out-dir", "{out}"],
], ids=["sample-dir", "analyze-file", "reduce-file", "sample-file",
        "train-file", "analyze-under-file", "train-wavs-file"])
def test_os_error_is_input_error_exit_2(tmp_path, capsys, argv):
    names = {key: tmp_path / key for key in
             ("dir", "out", "file", "wav", "checkpoint", "config", "wavs_config")}
    names["dir"].mkdir()
    names["file"].write_bytes(b"taken")
    write_tone(names["wav"], seconds=0.1)
    write_toy_checkpoint(names["checkpoint"])
    write_toy_config(names["config"])
    names["wavs_config"].write_text(names["config"].read_text().replace(
        "source = tones", f"source = wavs\npath = {names['file']}"))
    assert main([arg.format(**names) for arg in argv]) == 2
    assert_input_error(capsys)


def test_config_parses_typed_values(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("""
[audio]
sample_rate_hz = 4096

[model]
num_blocks = 2
seed_bands = 4
channels = 8, 4, 2

[train]
freeze_blocks = 1, 2
iterations = 5
""")
    app = load_config(path)
    assert app.sample_rate_hz == 4096
    assert app.model.channels == (8, 4, 2)
    assert app.train.freeze_blocks == (1, 2)
    assert app.train.iterations == 5


@pytest.mark.parametrize("items", ["1,,1", "1,1,", ",1,1", "1, ,1"])
@pytest.mark.parametrize("key", ["channels", "freeze_blocks"])
def test_empty_integer_list_item_is_an_error(tmp_path, capsys, key, items):
    # [model] channels and [train] freeze_blocks are parsed as shapes
    # --channels is; the config file used to drop empty items silently
    config = tmp_path / "c.ini"
    write_toy_config(config)
    text = config.read_text()
    if key == "channels":
        text = text.replace("channels = 4, 3", f"channels = {items}")
    else:
        text = text.replace("[train]", f"[train]\nfreeze_blocks = {items}")
    config.write_text(text)
    assert main(["train", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key} = " in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    assert main(["shapes", "--blocks", "1", f"--channels={items}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --channels: ")
    assert err.count("\n") == 1


def test_integer_lists_parse_alike_in_config_and_argv(tmp_path, capsys):
    config = tmp_path / "c.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace(
        "channels = 4, 3", "channels = 4 ,3").replace(
        "[train]", "[train]\nfreeze_blocks ="))
    app = load_config(config)
    assert app.model.channels == (4, 3) and app.train.freeze_blocks == ()
    assert main(["shapes", "--blocks", "1", "--channels", "4 ,3"]) == 0
    assert "block 1" in capsys.readouterr().out


@pytest.mark.parametrize("blocks", ["0", "3", "1, 9", "-1"])
def test_config_rejects_freeze_blocks_outside_model(tmp_path, blocks):
    # blocks are numbered 1..num_blocks; others would freeze nothing
    path = tmp_path / "c.ini"
    path.write_text(f"""
[model]
num_blocks = 2
seed_bands = 4
channels = 8, 4, 2

[train]
freeze_blocks = {blocks}
""")
    with pytest.raises(ConfigError, match="freeze_blocks"):
        load_config(path)


def test_quiet_env_suppresses_chatter(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "t.wav"
    write_tone(wav, seconds=0.1)
    monkeypatch.setenv("OCTAUDIO_VERBOSE", "0")
    assert main(["analyze", str(wav), str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key", ["mdct_bands = 16", "noise_scale = 1.0",
                                 "db_floor = -100.0"])
def test_config_removed_audio_key_exit_1(tmp_path, capsys, key):
    # keys that nothing read are gone; a file that still sets one fails fast
    config = tmp_path / "c.ini"
    write_toy_config(config)
    config.write_text(config.read_text().replace("[audio]", f"[audio]\n{key}"))
    assert main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "unknown key" in err


@pytest.mark.parametrize("command, option, value", [
    ("analyze", "--bands", "0"),
    ("analyze", "--bands", "-8"),
    ("analyze", "--bands", "12"),
    ("roundtrip", "--bands", str(2 * cli.MAX_BANDS)),
    # formatting bands * 2^folds in "needs at least ... samples" once hit
    # Python's int-to-text limit (exit 3)
    pytest.param("reduce", "--bands", str(2 ** 14000), id="reduce---bands-2^14000"),
    ("analyze", "--alpha", "nan"),
    ("analyze", "--alpha", "0"),
    ("analyze", "--db-floor", "0"),
    ("analyze", "--db-floor", "-inf"),
    ("analyze", "--db-reference", "nan"),
    ("roundtrip", "--noise", "-1"),
    ("roundtrip", "--noise", "nan"),
    ("roundtrip", "--seed", "-1"),
    ("reduce", "--folds", "-1"),
    ("sample", "--count", "-1"),
    ("sample", "--count", "0"),
    ("sample", "--seed", "-1"),
    ("sample", "--sample-rate", "0"),
    ("sample", "--sample-rate", "99999999999"),
    ("shapes", "--channels", "a,b"),
    ("shapes", "--channels", "4,,2"),
])
def test_bad_numeric_argument_is_usage_error(tmp_path, capsys, command, option,
                                             value):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=0.1)
    checkpoint = tmp_path / "checkpoint.bin"
    write_toy_checkpoint(checkpoint)
    first = {"analyze": [wav, tmp_path / "o"], "reduce": [wav, tmp_path / "o"],
             "roundtrip": [wav, tmp_path / "o.wav"],
             "sample": [checkpoint, tmp_path / "o"], "shapes": []}[command]
    argv = [command, *map(str, first), f"{option}={value}"]   # "-inf" is no flag
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {option}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("command, option, value", [
    ("roundtrip", "--db-floor", "-80"),
    ("reduce", "--alpha", "0.5"),
    ("reduce", "--db-reference", "90"),
])
def test_option_the_command_does_not_read_is_usage_error(tmp_path, capsys, command,
                                                        option, value):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=0.1)
    out = tmp_path / ("o.wav" if command == "roundtrip" else "o")
    assert main([command, str(wav), str(out), option, value]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: unrecognized arguments: {option} {value}\n"
    assert not out.exists()


# every option of the commands that read files or print shapes, with values
# each accepts; any option may instead get a value from ARGV_INVALID
ARGV_OPTIONS = {
    "analyze": {"--bands": ("8", "16", "128"), "--alpha": ("0.3", "2"),
                "--db-reference": ("96", "0"), "--db-floor": ("-60",)},
    "roundtrip": {"--noise": ("0", "1", "2.5"), "--seed": ("0", "7"),
                  "--bands": ("8", "16", "128"), "--alpha": ("0.3",),
                  "--db-reference": ("96",)},
    "reduce": {"--folds": ("0", "1", "3"), "--bands": ("8", "16", "128"),
               "--db-floor": ("-60",)},
    "shapes": {"--blocks": ("0", "1", "2"), "--seed": ("4x2", "1x4"),
               "--latent": ("6",), "--channels": ("4,3", "8,4,2"),
               "--output-channels": ("1", "2")},
    "sample": {"--count": ("1", "2"), "--seed": ("0", "3"),
               "--sample-rate": ("2048", "44100")},
}
ARGV_INVALID = ("nan", "inf", "-1", "", "1e308", "abc", "4x2", "1,2")


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Input paths (a tiny stereo WAV, a mono 44.1 kHz WAV, a toy checkpoint,
    a missing file) and output paths (a directory to make, an existing
    file, a path under a missing directory; roundtrip writes each path
    plus ".wav")."""
    root = tmp_path_factory.mktemp("argv")
    stereo, mono = root / "stereo.wav", root / "mono.wav"
    write_wav(AudioBuffer(
        0.1 * np.random.default_rng(0).standard_normal((600, 2)), FS), stereo)
    write_tone(mono, seconds=0.05, fs=44100)
    checkpoint = root / "toy.ckpt"
    write_toy_checkpoint(checkpoint)
    taken = root / "taken"
    taken.write_bytes(b"taken")
    inputs = [stereo, mono, checkpoint, root / "missing.wav"]
    outputs = [root / "out", taken, root / "missing" / "sub"]
    return [str(p) for p in inputs], [str(p) for p in outputs]


@st.composite
def cli_argv(draw, files):
    inputs, outputs = files
    command = draw(st.sampled_from(sorted(ARGV_OPTIONS)))
    argv = [command]
    if command != "shapes":
        argv.append(draw(st.sampled_from(inputs)))
        out = draw(st.sampled_from(outputs))
        argv.append(out + ".wav" if command == "roundtrip" else out)
    for option, valid in ARGV_OPTIONS[command].items():
        value = draw(st.none() | st.sampled_from(valid)
                     | st.sampled_from(ARGV_INVALID))
        if value is not None:
            argv.append(f"{option}={value}")    # "-1" is no flag
    return argv


@pytest.mark.deep
@settings(deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_code_and_one_error_line(argv_files, data):
    argv = data.draw(cli_argv(argv_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    stderr = err.getvalue()
    if code:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), argv
    else:
        assert stderr == "", argv


@pytest.mark.parametrize("rate", [1e30, [1], "abc", 0, -5])
def test_sample_checkpoint_bad_sample_rate_exit_2(tmp_path, capsys, rate):
    checkpoint = tmp_path / "checkpoint.bin"
    cfg = ModelConfig(latent_dim=6, num_blocks=1, seed_blocks=2, seed_bands=4,
                      channels=(4, 3), output_channels=1)
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(0))
    save_checkpoint(checkpoint, params, cfg, extra={"sample_rate_hz": rate})
    assert main(["sample", str(checkpoint), str(tmp_path / "s")]) == 2
    assert_input_error(capsys)
    assert not (tmp_path / "s").exists()


def batched_sample(checkpoint, out_dir, count, seed):
    """sample as it ran before it streamed: one generator call on the whole
    (count, latent_dim) draw, then inverse and write per sample. Returns the
    generated amplitudes."""
    params, cfg, _, extra = load_checkpoint(checkpoint)
    z = np.random.default_rng(seed).standard_normal((count, cfg.latent_dim))
    with ad.no_grad():
        batch = generator(ad.constant(z), params, cfg).data
    os.makedirs(out_dir)
    for i in range(count):
        buf = mdct_inverse(MdctTensor(batch[i], extra["sample_rate_hz"]))
        write_wav(buf, os.path.join(out_dir, f"sample_{i:03d}.wav"))
    return batch


def check_sample_matches_batched(tmp, seed, count, output_channels):
    """Run sample and compare it with the batched oracle: one generator call
    per sample, amplitudes within 1e-12 relative and WAV samples within one
    16-bit step."""
    checkpoint = pathlib.Path(tmp) / "checkpoint.bin"
    write_toy_checkpoint(checkpoint, seed=seed, output_channels=output_channels)
    streamed, batched = os.path.join(tmp, "streamed"), os.path.join(tmp, "batched")
    batch_sizes, amplitudes = [], []

    def recording_generator(z, params, cfg):
        batch_sizes.append(z.shape[0])
        return generator(z, params, cfg)

    def recording_inverse(tensor):
        amplitudes.append(tensor.amplitudes.copy())
        return mdct_inverse(tensor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "generator", recording_generator)
        mp.setattr(mdct, "mdct_inverse", recording_inverse)
        mp.setenv("OCTAUDIO_VERBOSE", "0")
        assert main(["sample", str(checkpoint), streamed, "--count", str(count),
                     "--seed", str(seed)]) == 0
    expected = batched_sample(checkpoint, batched, count, seed)
    assert batch_sizes == [1] * count
    assert len(amplitudes) == count
    for i in range(count):
        scale = np.abs(expected[i]).max()
        assert np.abs(amplitudes[i] - expected[i]).max() <= 1e-12 * scale
        name = f"sample_{i:03d}.wav"
        a = read_wav(os.path.join(streamed, name))
        b = read_wav(os.path.join(batched, name))
        assert a.sample_rate_hz == b.sample_rate_hz
        assert a.samples.shape == b.samples.shape
        assert np.abs(a.samples - b.samples).max() <= 1 / 32768
    assert sorted(os.listdir(streamed)) == sorted(os.listdir(batched))


@pytest.mark.deep
@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 3),
       output_channels=st.sampled_from([1, 2]))
def test_sample_matches_batched_generator(seed, count, output_channels):
    with tempfile.TemporaryDirectory() as tmp:
        check_sample_matches_batched(tmp, seed, count, output_channels)


def sample_peak_bytes(checkpoint, out_dir, count):
    """tracemalloc peak of one sample run."""
    tracemalloc.start()
    try:
        assert main(["sample", str(checkpoint), str(out_dir),
                     "--count", str(count)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_peak_does_not_grow_with_count(tmp_path, capsys):
    checkpoint = tmp_path / "checkpoint.bin"
    write_toy_checkpoint(checkpoint, channels=(32, 32, 16, 16), output_channels=2)
    one = sample_peak_bytes(checkpoint, tmp_path / "one", 1)
    four = sample_peak_bytes(checkpoint, tmp_path / "four", 4)
    assert four <= 1.25 * one, four / one


def test_sample_peak_grows_with_previous_block_not_last(tmp_path):
    # the benchmark's 5-block 1024x128x2 model: each of the last block's
    # activations over the whole clip is 32 MiB (69 MB peak before it ran
    # in tiles); a tile's is 4 MiB, as is the previous block's output
    cfg = ModelConfig(latent_dim=128, num_blocks=5, seed_blocks=1, seed_bands=4,
                      channels=(128, 128, 64, 64, 32, 32), output_channels=2)
    rng = np.random.default_rng(0)
    params = init_params(generator_param_shapes(cfg), rng)
    z = rng.standard_normal((1, cfg.latent_dim))
    tracemalloc.start()
    try:
        cli._write_sample(z, params, cfg, FS, str(tmp_path / "s.wav"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, peak


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second and 50 MB to import and only
    # audio_io.resample uses it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = ("import sys, octaudio, octaudio.cli\n"
            "assert 'scipy.signal' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_diverging_training_exits_3_with_one_stderr_line(tmp_path):
    # numpy's overflow warnings stay off stderr: the loss check reports it
    root = pathlib.Path(__file__).resolve().parent.parent
    config = tmp_path / "diverge.ini"
    config.write_text((root / "examples_config.ini").read_text()
                      .replace("learning_rate = 0.001", "learning_rate = 1e30")
                      .replace("iterations = 2000", "iterations = 5"))
    result = subprocess.run(
        [sys.executable, "-m", "octaudio", "train", str(config),
         "--out-dir", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True,
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == ["compute error: non-finite loss at iteration 2"]
    # the row it wrote before diverging stays
    rows = (tmp_path / "run" / "losses.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["iteration", "1"]

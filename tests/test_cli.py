import csv
import os
import struct

import numpy as np
import pytest

from octaudio.audio_io import AudioBuffer, read_wav, write_wav
from octaudio.cli import main
from octaudio.nn.model import (
    ModelConfig,
    generator_param_shapes,
    init_params,
    save_checkpoint,
)

FS = 22016


def write_tone(path, freq=440.0, seconds=0.5, amp=0.5, fs=FS):
    t = np.arange(int(fs * seconds)) / fs
    write_wav(AudioBuffer(amp * np.sin(2 * np.pi * freq * t), fs), path)


def read_pgm(path):
    blob = open(path, "rb").read()
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
    samples = np.sin(np.arange(4096) / 10.0).astype("<f4")
    samples[1000] = np.nan
    data = samples.tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 3, 1, FS, FS * 4, 4, 32)
    chunks = b"fmt " + fmt + b"data" + struct.pack("<I", len(data)) + data
    wav = tmp_path / "nan.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
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


def test_roundtrip_noise_one_reports_bands(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=2.0)
    out_wav = tmp_path / "n.wav"
    assert main(["roundtrip", str(wav), str(out_wav), "--noise", "1"]) == 0
    report = capsys.readouterr().out
    assert "ratio" in report
    assert "AUDIBLE" not in report
    ratios = [float(line.split()[3]) for line in report.splitlines()
              if line.strip() and line.split()[0].isdigit()]
    assert ratios and max(ratios) <= 1.2
    assert out_wav.exists()


def test_roundtrip_large_noise_flags_audible(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_tone(wav, seconds=0.5)
    out_wav = tmp_path / "loud.wav"
    assert main(["roundtrip", str(wav), str(out_wav), "--noise", "100"]) == 0
    assert "AUDIBLE" in capsys.readouterr().out


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


def write_toy_config(path, out_channels=1, iterations=4):
    path.write_text(f"""
[audio]
sample_rate_hz = 2048
mdct_bands = 8

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


def write_toy_checkpoint(path, drop=()):
    cfg = ModelConfig(latent_dim=6, num_blocks=1, seed_blocks=2, seed_bands=4,
                      channels=(4, 3), output_channels=1)
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(0))
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
                 b'{"model": {"channels": "ab"}}', b"\xff"):
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


def test_train_missing_config_exit_1(tmp_path):
    assert main(["train", str(tmp_path / "none.ini")]) == 1


def test_config_parses_typed_values(tmp_path):
    from octaudio.config import load_config

    path = tmp_path / "c.ini"
    path.write_text("""
[audio]
sample_rate_hz = 4096
mdct_bands = 32

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
    assert app.mdct_bands == 32
    assert app.model.channels == (8, 4, 2)
    assert app.train.freeze_blocks == (1, 2)
    assert app.train.iterations == 5


def test_quiet_env_suppresses_chatter(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "t.wav"
    write_tone(wav, seconds=0.1)
    monkeypatch.setenv("OCTAUDIO_VERBOSE", "0")
    assert main(["analyze", str(wav), str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == ""

"""sha256 of every command's outputs on seeded inputs, against a checked-in
table keyed by machine (golden_digests.json beside this file).

The bytes follow numpy's and scipy's versions, numpy's SIMD dispatch and
the OpenBLAS kernel and thread count, which openblas_info.golden_key()
names. On a key the table lacks the test skips, and its reason holds the
key and the digests to add; on a known key every digest must match. A
change that alters outputs on purpose updates the table and says so.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from octaudio.cli import main
from openblas_info import golden_key
from test_cli import write_float_wav

TABLE = pathlib.Path(__file__).with_name("golden_digests.json")
EXAMPLE_CONFIG = pathlib.Path(__file__).parents[1] / "examples_config.ini"
FS = 22016
TRAIN_ITERATIONS = 40


def seeded_stereo():
    """20 s of seeded stereo in 1 s stretches, plus a tail that commands
    trim: noise at 0.3 and -60 dB, digital silence, noise near 1e-40 full
    scale (float32 subnormals) and a 440 Hz tone."""
    rng = np.random.default_rng(2022)
    levels = np.resize([0.3, 0.0, 1e-40, 1e-3, 0.05, 3e-41, 0.3, 0.0], 20)
    samples = np.repeat(levels, FS)[:, np.newaxis] * rng.standard_normal(
        (20 * FS, 2))
    t = np.arange(FS) / FS
    samples[4 * FS:5 * FS] += 0.2 * np.sin(2 * np.pi * 440.0 * t)[:, np.newaxis]
    return np.concatenate([samples, 0.1 * rng.standard_normal((37, 2))])


def command_outputs(tmp, capsys):
    """Run analyze, roundtrip, reduce, train and sample in-process and
    return {output name: sha256} of every file and band table they write."""
    wav = tmp / "in.wav"
    write_float_wav(wav, seeded_stereo())
    outputs = tmp / "outputs"
    tables = {}
    assert main(["analyze", str(wav), str(outputs / "analyze")]) == 0
    for noise in ("0", "1", "2.5"):
        assert main(["roundtrip", str(wav),
                     str(outputs / f"roundtrip_noise_{noise}.wav"),
                     "--noise", noise, "--seed", "7"]) == 0
        tables[f"roundtrip_noise_{noise}.txt"] = capsys.readouterr().out.encode()
    for folds in range(4):
        assert main(["reduce", str(wav), str(outputs / f"reduce_folds_{folds}"),
                     "--folds", str(folds)]) == 0
    config = tmp / "config.ini"
    config.write_text(EXAMPLE_CONFIG.read_text().replace(
        "iterations = 2000", f"iterations = {TRAIN_ITERATIONS}"))
    assert main(["train", str(config), "--out-dir", str(outputs / "train")]) == 0
    assert main(["sample", str(outputs / "train" / "checkpoint.bin"),
                 str(outputs / "sample"), "--count", "2", "--seed", "3"]) == 0
    blobs = {path.relative_to(outputs).as_posix(): path.read_bytes()
             for path in outputs.rglob("*") if path.is_file()}
    blobs.update(tables)
    return {name: hashlib.sha256(blob).hexdigest()
            for name, blob in sorted(blobs.items())}


def test_outputs_match_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OCTAUDIO_VERBOSE", "0")    # the band tables only
    digests = command_outputs(tmp_path, capsys)
    assert len(digests) == 5 + 2 * 3 + (1 + 2 + 3 + 4) + 2 + 2
    key = golden_key()
    table = json.loads(TABLE.read_text())
    if key not in table:
        pytest.skip(f"{TABLE.name} has no digests for this machine; add\n"
                    + json.dumps({key: digests}, indent=2))
    expected = table[key]
    differing = sorted(name for name in digests.keys() | expected.keys()
                       if digests.get(name) != expected.get(name))
    assert not differing, differing

"""The four workloads: their inputs, one op each, and the op's output check.

Every input is generated here from the workload seed; octaudio only sees
the generated files. See README.md for why each workload exists.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import wave

import numpy as np

from octaudio import cli, datasets
from octaudio.audio_io import read_wav
from octaudio.config import load_config
from octaudio.nn import model as nn_model

SAMPLE_RATE_HZ = 22016
WAV_SECONDS = 60
SMOKE_WAV_SECONDS = 2
ONE_16BIT_STEP = 1.0 / 32768.0

# the sampling model: 5 blocks from a 1x4 seed -> 1024 x 128 x 2
SAMPLE_MODEL = nn_model.ModelConfig(
    latent_dim=128, num_blocks=5, seed_blocks=1, seed_bands=4,
    channels=(128, 128, 64, 64, 32, 32), output_channels=2,
)
# smoke mode: 2 blocks -> 16 x 16 x 2
SMOKE_SAMPLE_MODEL = nn_model.ModelConfig(
    latent_dim=8, num_blocks=2, seed_blocks=1, seed_bands=4,
    channels=(8, 8, 8), output_channels=2,
)
SAMPLE_COUNT = 2

TRAIN_CONFIG = "examples_config.ini"
# larger than any run reaches; the benchmark stops training from progress()
TRAIN_ITERATIONS = 100_000


def synth_wav(path, seed, seconds):
    """Seeded stereo 16-bit test signal.

    Harmonic tones with random onsets, pitches, partial counts and decays,
    independent per channel, over low-level noise, so that tonality and
    masking change from block to block.
    """
    rng = np.random.default_rng(seed)
    n = int(seconds * SAMPLE_RATE_HZ)
    t = np.arange(n) / SAMPLE_RATE_HZ
    out = rng.normal(0.0, 1e-3, size=(n, 2))
    for channel in range(2):
        for _ in range(int(1.5 * seconds)):
            onset = int(rng.uniform(0.0, seconds) * SAMPLE_RATE_HZ)
            stop = min(n, onset + int(rng.uniform(0.2, 3.0) * SAMPLE_RATE_HZ))
            local = t[onset:stop] - t[onset]
            envelope = (np.minimum(local / 0.01, 1.0)
                        * np.exp(-local * rng.uniform(0.5, 5.0)))
            f0 = np.exp(rng.uniform(np.log(80.0), np.log(1800.0)))
            level = rng.uniform(0.02, 0.15)
            for h in range(1, int(rng.integers(1, 7)) + 1):
                if f0 * h >= SAMPLE_RATE_HZ / 2:
                    break
                phase = rng.uniform(0.0, 2.0 * np.pi)
                out[onset:stop, channel] += (level / h) * envelope * np.sin(
                    2.0 * np.pi * f0 * h * local + phase)
    ints = np.round(np.clip(out, -1.0, 1.0 - ONE_16BIT_STEP) * 32768.0)
    with wave.open(path, "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE_HZ)
        fh.writeframes(ints.astype("<i2").tobytes())


def run_cli(argv):
    """One CLI invocation; returns (exit code, captured stdout)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def digest_files(paths, text=""):
    h = hashlib.sha256(text.encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode())
            h.update(fh.read())
    return h.hexdigest()


class CliWorkload:
    """A workload whose op is one `octaudio <command>` invocation."""

    iters_per_op = 1

    def __init__(self, workdir, seed, smoke):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def path(self, name):
        return os.path.join(self.workdir, name)

    def op(self):
        return run_cli(self.argv)

    def check(self, code, text):
        """(digest, errors) for the outputs the op just wrote."""
        if code != 0:
            return None, [f"exit code {code}"]
        return digest_files(self.outputs, self.digest_text(text)), []

    def digest_text(self, text):
        return ""

    def final_checks(self):
        """Extra once-per-run checks; returns (attempted, errors)."""
        return 0, []


class Analyze(CliWorkload):
    name = "analyze_60s"
    probe_reps = 8

    def prepare(self):
        seconds = SMOKE_WAV_SECONDS if self.smoke else WAV_SECONDS
        synth_wav(self.path("in.wav"), self.seed, seconds)
        self.audio_s_per_op = seconds
        self.argv = ["analyze", self.path("in.wav"), self.path("out"),
                     "--bands", "128"]
        self.outputs = [self.path(os.path.join("out", f)) for f in (
            "spectrogram.pgm", "signed_amplitudes.pgm", "tonality.csv",
            "thresholds.csv", "mdct.bin")]


class Roundtrip(CliWorkload):
    name = "roundtrip_60s"
    probe_reps = 4

    def prepare(self):
        seconds = SMOKE_WAV_SECONDS if self.smoke else WAV_SECONDS
        synth_wav(self.path("in.wav"), self.seed, seconds)
        self.audio_s_per_op = seconds
        self.argv = ["roundtrip", self.path("in.wav"), self.path("out.wav"),
                     "--noise", "1.0"]
        self.outputs = [self.path("out.wav")]

    def digest_text(self, text):
        return text      # the per-band noise/threshold table

    def final_checks(self):
        """--noise 0 must give back the input within one 16-bit step."""
        code, _ = run_cli(["roundtrip", self.path("in.wav"),
                           self.path("noise0.wav"), "--noise", "0"])
        if code != 0:
            return 1, [f"--noise 0 exit code {code}"]
        before = read_wav(self.path("in.wav")).samples
        after = read_wav(self.path("noise0.wav")).samples
        if before.shape != after.shape:
            return 1, [f"--noise 0 shape {after.shape} != {before.shape}"]
        worst = float(np.max(np.abs(after - before)))
        if worst > ONE_16BIT_STEP:
            return 1, [f"--noise 0 differs by {worst:.3g} > one 16-bit step"]
        return 1, []


class Sample(CliWorkload):
    name = "sample_1024x128"
    probe_reps = 4

    def prepare(self):
        cfg = SMOKE_SAMPLE_MODEL if self.smoke else SAMPLE_MODEL
        rng = np.random.default_rng(self.seed)
        params = nn_model.init_params(nn_model.generator_param_shapes(cfg), rng)
        nn_model.save_checkpoint(self.path("checkpoint.bin"), params, cfg,
                                 extra={"sample_rate_hz": SAMPLE_RATE_HZ})
        blocks, bands, _ = cfg.output_shape
        self.audio_s_per_op = SAMPLE_COUNT * blocks * bands / SAMPLE_RATE_HZ
        self.frames = blocks * bands
        self.argv = ["sample", self.path("checkpoint.bin"), self.path("out"),
                     "--count", str(SAMPLE_COUNT)]
        self.outputs = [self.path(os.path.join("out", f"sample_{i:03d}.wav"))
                        for i in range(SAMPLE_COUNT)]

    def check(self, code, text):
        digest, errors = super().check(code, text)
        for path in self.outputs if not errors else ():
            samples = read_wav(path).samples
            if samples.shape != (self.frames, 2):
                errors.append(f"{path}: shape {samples.shape}")
        return digest, errors


class TrainToy:
    """One generator cycle (n_critic iterations) of train() on the toy config.

    train() runs once per process; ops are cut at its progress callback.
    """

    name = "train_toy"
    probe_reps = 2

    def __init__(self, workdir, seed, smoke, root):
        self.workdir = workdir
        self.seed = seed          # the toy corpus is seeded by the config
        self.config_path = os.path.join(root, TRAIN_CONFIG)

    def prepare(self):
        app = load_config(self.config_path)
        # the corpus is built and seeded exactly as `octaudio train` does
        rng = np.random.default_rng(app.train.rng_seed)
        blocks, bands, channels = app.model.output_shape
        self.dataset = datasets.synthetic_tone_dataset(
            rng, app.data_count, app.sample_rate_hz, blocks, bands, channels)
        self.model_cfg = app.model
        self.train_cfg = dataclasses.replace(app.train, iterations=TRAIN_ITERATIONS)
        self.iters_per_op = app.train.n_critic
        # real audio the critic sees per op: one batch per iteration
        self.audio_s_per_op = (self.iters_per_op * app.train.batch_size
                               * blocks * bands / app.sample_rate_hz)
        self.out_dir = os.path.join(self.workdir, "train")

    def losses(self):
        """Rows of losses.csv after the header, as written."""
        with open(os.path.join(self.out_dir, "losses.csv")) as fh:
            return fh.read().splitlines()[1:]


WORKLOADS = {w.name: w for w in (Analyze, Roundtrip, TrainToy, Sample)}

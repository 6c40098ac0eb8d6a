"""Command-line front end.

Commands: analyze, roundtrip, reduce, shapes, train, sample.
Exit codes: 0 success, 1 usage/config error, 2 input parse error,
3 computation error. All outputs land under the given output directory.
Set OCTAUDIO_VERBOSE=0 to silence informational output (errors still go
to stderr).
"""

import argparse
import os
import sys
import time

import numpy as np

from . import audio_io, datasets, psycho, spectral
from .config import AppConfig, load_config
from .errors import (
    ConfigError,
    DivergenceError,
    IoError,
    ParseError,
    ShapeError,
    UnsupportedFormat,
)
from .mdct import MdctTensor, mdct_forward_fast, mdct_inverse, save_tensor
from .nn import autodiff as ad
from .nn.model import (
    ModelConfig,
    generator,
    load_checkpoint,
    shape_table,
)
from .nn.train import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3


class _UsageError(Exception):
    pass


def _verbose():
    return os.environ.get("OCTAUDIO_VERBOSE", "1") != "0"


def say(*args, **kwargs):
    if _verbose():
        print(*args, **kwargs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_trimmed(wav_path, band_count, multiple=1):
    """Read a WAV and trim it to a multiple of band_count * multiple samples."""
    buf = audio_io.read_wav(wav_path)
    chunk = band_count * multiple
    usable = (len(buf) // chunk) * chunk
    if usable == 0:
        raise ShapeError(
            f"{wav_path}: needs at least {chunk} samples, has {len(buf)}"
        )
    return audio_io.AudioBuffer(buf.samples[:usable], buf.sample_rate_hz)


def cmd_analyze(args):
    bands = args.bands
    buf = _read_trimmed(args.wav, bands)
    tensor = mdct_forward_fast(buf, bands)
    os.makedirs(args.out_dir, exist_ok=True)
    spec = spectral.spectrogram(tensor)
    spec.db_floor = args.db_floor
    spectral.to_db_image(spec, os.path.join(args.out_dir, "spectrogram.pgm"))
    spectral.signed_db_image(
        tensor, os.path.join(args.out_dir, "signed_amplitudes.pgm"), args.db_floor
    )
    spectral.write_tonality_csv(tensor, os.path.join(args.out_dir, "tonality.csv"))
    psycho.write_thresholds_csv(
        tensor, os.path.join(args.out_dir, "thresholds.csv"),
        alpha=args.alpha, db_reference=args.db_reference,
    )
    save_tensor(tensor, os.path.join(args.out_dir, "mdct.bin"))
    say(f"analyzed {args.wav}: {tensor.num_blocks} blocks x {bands} bands, "
        f"mean tonality {spectral.mean_tonality(tensor):.3f}")
    say(f"outputs in {args.out_dir}")
    return EXIT_OK


def cmd_roundtrip(args):
    bands = args.bands
    buf = _read_trimmed(args.wav, bands)
    tensor = mdct_forward_fast(buf, bands)
    partition = psycho.bark_partition(buf.sample_rate_hz, bands)
    noisy = psycho.psychoacoustic_noise(
        tensor, scale=args.noise, rng_seed=args.seed, partition=partition,
        alpha=args.alpha, db_reference=args.db_reference,
    )
    out = mdct_inverse(noisy)
    audio_io.write_wav(out, args.out_wav)

    thresholds = psycho.compute_thresholds(
        tensor, partition, args.alpha, args.db_reference
    )
    added = noisy.amplitudes - tensor.amplitudes
    # inaudible allowance per bin is (step/2)^2; report each band's mean
    # added power relative to that allowance (c^2 at the design point)
    allowance = psycho.quantization_step(thresholds.combined, partition) / 2.0
    pool = partition.pooling_matrix()
    bins_per_band = pool.sum(axis=0)
    mean_power = np.moveaxis(added * added, 2, 0).mean(axis=(0, 1)) @ pool
    mean_power /= np.maximum(bins_per_band, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(allowance > 0, (added / allowance) ** 2, 0.0)
    ratio = (
        np.moveaxis(normalized, 2, 0).mean(axis=(0, 1)) @ pool
    ) / np.maximum(bins_per_band, 1)

    say(f"wrote {args.out_wav} (noise scale c = {args.noise})")
    print("band     mid_hz   mean_noise_power   noise/threshold ratio")
    for j in range(partition.band_count):
        flag = "  AUDIBLE" if ratio[j] > 2.0 else ""
        print(f"{j:4d} {partition.band_mid_hz[j]:10.1f}   {mean_power[j]:.6e}"
              f"   {ratio[j]:12.4f}{flag}")
    return EXIT_OK


def cmd_reduce(args):
    bands = args.bands
    buf = _read_trimmed(args.wav, bands, multiple=2 ** args.folds)
    tensor = mdct_forward_fast(buf, bands)
    spec = spectral.spectrogram(tensor)
    reduced = spectral.reduce_spectrogram(spec, args.folds)
    os.makedirs(args.out_dir, exist_ok=True)
    for level, values in enumerate(reduced.levels):
        path = os.path.join(args.out_dir, f"level_{level}.pgm")
        spectral.write_pgm(
            spectral.db_pixels(values.mean(axis=2), args.db_floor), path
        )
        say(f"level_{level}: {values.shape[0]} x {values.shape[1]} -> {path}")
    return EXIT_OK


def cmd_shapes(args):
    try:
        seed_blocks, seed_bands = (int(p) for p in args.seed.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--seed must look like MxN, got {args.seed!r}")
    channels = None
    if args.channels:
        channels = tuple(int(c) for c in args.channels.split(","))
    cfg = ModelConfig(
        latent_dim=args.latent,
        num_blocks=args.blocks,
        seed_blocks=seed_blocks,
        seed_bands=seed_bands,
        channels=channels,
        output_channels=args.output_channels,
    )
    table = shape_table(cfg)
    print(f"latent {cfg.latent_dim}")
    for name, m, n, c in table["rows"]:
        print(f"{name:10s} {m} x {n} x {c}")
    print(f"generator parameters:     {table['generator_params']:,}")
    print(f"discriminator parameters: {table['discriminator_params']:,}")
    return EXIT_OK


def _load_dataset(app: AppConfig, rng):
    m_out, n_out, c_out = app.model.output_shape
    if app.data_source == "tones":
        return datasets.synthetic_tone_dataset(
            rng, app.data_count, app.sample_rate_hz, m_out, n_out, c_out
        )
    wavs = sorted(
        os.path.join(app.data_path, f)
        for f in os.listdir(app.data_path)
        if f.lower().endswith(".wav")
    )
    if not wavs:
        raise ConfigError(f"no .wav files under {app.data_path!r}")
    segment = m_out * n_out
    tensors = []
    for path in wavs:
        buf = audio_io.read_wav(path)
        buf = audio_io.resample(buf, app.sample_rate_hz)
        samples = buf.samples
        if samples.shape[1] != c_out:
            if c_out == 1:
                samples = samples.mean(axis=1, keepdims=True)
            else:
                samples = np.repeat(samples[:, :1], c_out, axis=1)
        buf = audio_io.AudioBuffer(samples, app.sample_rate_hz)
        for piece in audio_io.slice_segments(buf, segment, segment):
            tensors.append(mdct_forward_fast(piece, n_out))
    if not tensors:
        raise ConfigError(f"no segment of {segment} samples fits the input audio")
    return tensors


def cmd_train(args):
    app = load_config(args.config)
    out_dir = args.out_dir or "train_out"
    rng = np.random.default_rng(app.train.rng_seed)
    dataset = _load_dataset(app, rng)
    say(f"training on {len(dataset)} samples of shape {app.model.output_shape}, "
        f"{app.train.iterations} iterations")

    every = max(1, app.train.iterations // 10)

    def progress(it, loss_d, loss_g):
        if it % every == 0 or it == app.train.iterations:
            say(f"  iter {it:6d}  loss_D {loss_d:+.4f}  loss_G {loss_g:+.4f}")

    result = train(dataset, app.model, app.train, out_dir,
                   checkpoint_every=app.checkpoint_every, progress=progress)
    say(f"checkpoint: {result.checkpoint_path}")
    say(f"losses:     {result.csv_path}")
    return EXIT_OK


def cmd_sample(args):
    params, cfg, iteration, extra = load_checkpoint(args.checkpoint)
    sample_rate = int(extra.get("sample_rate_hz", args.sample_rate))
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    started = time.time()
    z = rng.standard_normal((args.count, cfg.latent_dim))
    with ad.no_grad():
        batch = generator(ad.constant(z), params, cfg).data
    for i in range(args.count):
        tensor = MdctTensor(batch[i], sample_rate)
        buf = mdct_inverse(tensor)
        audio_io.write_wav(buf, os.path.join(args.out_dir, f"sample_{i:03d}.wav"))
    elapsed = time.time() - started
    duration = cfg.output_shape[0] * cfg.output_shape[1] / sample_rate
    say(f"wrote {args.count} samples of {duration:.2f}s at {sample_rate} Hz "
        f"(checkpoint iteration {iteration}) in {elapsed:.2f}s wall time")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="octaudio",
                     description="MDCT analysis, psychoacoustics and toy "
                                 "adversarial training for audio")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--bands", type=int, default=128,
                       help="MDCT filter bands (power of two, default 128)")
        p.add_argument("--alpha", type=float, default=psycho.DEFAULT_ALPHA)
        p.add_argument("--db-reference", type=float,
                       default=psycho.DEFAULT_DB_REFERENCE)
        p.add_argument("--db-floor", type=float, default=spectral.DEFAULT_DB_FLOOR)

    p = sub.add_parser("analyze", help="spectrograms, tonality and thresholds")
    p.add_argument("wav")
    p.add_argument("out_dir")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("roundtrip",
                       help="WAV -> MDCT -> psychoacoustic noise -> WAV")
    p.add_argument("wav")
    p.add_argument("out_wav")
    p.add_argument("--noise", type=float, default=1.0, help="noise scale c")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("reduce", help="octave-folded reduced spectrograms")
    p.add_argument("wav")
    p.add_argument("out_dir")
    p.add_argument("--folds", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("shapes", help="model activation shapes and parameter counts")
    p.add_argument("--blocks", type=int, default=6)
    p.add_argument("--seed", default="4x2", help="seed shape MxN (default 4x2)")
    p.add_argument("--latent", type=int, default=512)
    p.add_argument("--channels", default=None,
                   help="comma-separated schedule, deepest first")
    p.add_argument("--output-channels", type=int, default=2)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("train", help="train the toy adversarial model")
    p.add_argument("config")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw WAV samples from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("out_dir")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate", type=int, default=22016,
                   help="fallback rate if the checkpoint has none")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, UnsupportedFormat, IoError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ShapeError, DivergenceError, ValueError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

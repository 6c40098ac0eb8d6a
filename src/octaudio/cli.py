"""Command-line front end.

Commands: analyze, roundtrip, reduce, shapes, train, sample.
Exit codes: 0 success, 1 usage/config error, 2 input error (a malformed
file or a failed file operation), 3 computation error. All outputs land under the given output directory.
Set OCTAUDIO_VERBOSE=0 to silence informational output (errors still go
to stderr).
"""

import argparse
import math
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
from .mdct import (
    MdctTensor,
    mdct_forward_fast,
    mdct_inverse,
    read_amplitudes,
    tensor_header,
    write_amplitudes,
)
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

# Blocks per pass of the DSP commands' loops over the track. A pass holds a
# few (K, N, C) arrays. On 60 s of 22016 Hz stereo at 128 bands, roundtrip
# adds 63 MB to the process's peak RSS at 1024 blocks (42 MB of it the
# (T, C) input and output), 127 MB at 4096 and 175 MB in one pass.
PASS_BLOCKS = 1024


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


def _checked(kind, ok, rule):
    """argparse type: kind(text) that must satisfy ok, else a usage error."""
    def convert(text):
        value = kind(text)      # ValueError reads "invalid <kind> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    convert.__name__ = kind.__name__
    return convert


_BANDS = _checked(int, lambda v: v >= 8 and not v & (v - 1), "a power of two >= 8")
_COUNT = _checked(int, lambda v: v >= 1, "a positive integer")
_NATURAL = _checked(int, lambda v: v >= 0, "a non-negative integer")
_RATE = _checked(int, lambda v: 1 <= v <= audio_io.MAX_SAMPLE_RATE_HZ,
                 f"a sample rate in 1..{audio_io.MAX_SAMPLE_RATE_HZ} Hz")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_SCALE = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_BELOW_ZERO = _checked(float, lambda v: -math.inf < v < 0, "a finite number < 0")
_FINITE = _checked(float, math.isfinite, "a finite number")


def _int_list(text):
    """argparse type: comma-separated integers, e.g. "512,256,128"."""
    return tuple(int(part) for part in text.split(","))


_int_list.__name__ = "integer list"     # argparse: "invalid integer list value"


def _read_trimmed(wav_path, chunk):
    """Read a WAV and trim it to a multiple of chunk samples."""
    buf = audio_io.read_wav(wav_path)
    usable = (len(buf) // chunk) * chunk
    if usable == 0:
        raise ShapeError(
            f"{wav_path}: needs at least {chunk} samples, has {len(buf)}"
        )
    return audio_io.AudioBuffer(buf.samples[:usable], buf.sample_rate_hz)


def _pass_bounds(num_blocks, unit=1):
    """(m0, m1) block ranges of PASS_BLOCKS blocks, rounded up to a
    multiple of unit, in order.

    Only a one-block track has a one-block pass: numpy multiplies a one-row
    matrix through gemv, which sums in another order than the whole
    track's gemm, so such a pass's thresholds would differ in the last bit.
    A last pass of one block joins the pass before it. (OpenBLAS's dgemm
    can also round a row by the call's shape: its small-matrix kernel
    differs in the last of 25 Bark bands, which no pass size avoids.)
    """
    size = -(-max(PASS_BLOCKS, 2) // unit) * unit
    starts = list(range(0, num_blocks, size))
    if len(starts) > 1 and starts[-1] == num_blocks - 1:
        starts.pop()
    return zip(starts, starts[1:] + [num_blocks])


def _forward_passes(buf, bands, unit=1):
    """(m0, m1, tensor): the forward MDCT of blocks [m0, m1) of a trimmed
    buffer, pass by pass, equal to those blocks of the whole-track
    transform. Block m reads samples [mN - N/2, mN + 3N/2), so a pass
    transforms one extra block on each side and drops them. Pass bounds
    are multiples of unit blocks, which must divide the block count."""
    samples, rate = buf.samples, buf.sample_rate_hz
    num_blocks = len(samples) // bands
    for m0, m1 in _pass_bounds(num_blocks, unit):
        lo, hi = max(m0 - 1, 0), min(m1 + 1, num_blocks)
        wide = mdct_forward_fast(
            audio_io.AudioBuffer(samples[lo * bands:hi * bands], rate), bands)
        yield m0, m1, MdctTensor(wide.amplitudes[m0 - lo:m1 - lo], rate)


def cmd_analyze(args):
    """Forward MDCT, thresholds and tonality in one pass over the track.

    Each pass appends its amplitudes to mdct.bin and its rows to
    thresholds.csv, keeps its per-block tonality and updates the two image
    peaks. The images are then drawn pass by pass from mdct.bin, so
    besides the (T, C) input only the (M,) tonality and two (N, M) uint8
    images grow with the track.
    """
    bands = args.bands
    buf = _read_trimmed(args.wav, bands)
    rate, channels = buf.sample_rate_hz, buf.channels
    num_blocks = len(buf) // bands
    partition = psycho.bark_partition(rate, bands)
    os.makedirs(args.out_dir, exist_ok=True)
    mdct_path = os.path.join(args.out_dir, "mdct.bin")
    tau = np.empty(num_blocks)
    power_peak = amplitude_peak = 0.0     # channel-mean A^2, channel 0 |A|
    with open(mdct_path, "wb") as mdct_fh, \
            open(os.path.join(args.out_dir, "thresholds.csv"), "w",
                 newline="") as csv_fh:
        mdct_fh.write(tensor_header(num_blocks, bands, channels, rate))
        csv_fh.write(psycho.THRESHOLDS_CSV_HEADER)
        for m0, m1, tensor in _forward_passes(buf, bands):
            amps = tensor.amplitudes
            write_amplitudes(mdct_fh, amps)
            thresholds = psycho.compute_thresholds(
                tensor, partition, args.alpha, args.db_reference)
            tau[m0:m1] = psycho.write_threshold_rows(csv_fh, thresholds, m0)
            power_peak = max(power_peak,
                             spectral.channel_mean_power(amps).max())
            amplitude_peak = max(amplitude_peak, np.abs(amps[:, :, 0]).max())
    spectral.write_tonality_csv(tau, bands / rate,
                                os.path.join(args.out_dir, "tonality.csv"))

    power = np.empty((bands, num_blocks), dtype=np.uint8)
    signed = np.empty_like(power)
    with open(mdct_path, "rb") as fh:
        for m0, m1 in _pass_bounds(num_blocks):
            amps = read_amplitudes(fh, m0, m1 - m0, bands, channels)
            power[:, m0:m1] = spectral.db_pixels(
                spectral.channel_mean_power(amps), args.db_floor, power_peak)
            signed[:, m0:m1] = spectral.signed_db_pixels(
                amps[:, :, 0], args.db_floor, amplitude_peak)
    spectral.write_pgm(power, os.path.join(args.out_dir, "spectrogram.pgm"))
    spectral.write_pgm(signed,
                       os.path.join(args.out_dir, "signed_amplitudes.pgm"))
    say(f"analyzed {args.wav}: {num_blocks} blocks x {bands} bands, "
        f"mean tonality {float(tau.mean()):.3f}")
    say(f"outputs in {args.out_dir}")
    return EXIT_OK


def _add_noise_and_report(tensor, partition, rng, args, sums):
    """Noisy copy of tensor from one threshold computation.

    Adds to sums, per bin and summed over blocks and channels, the added
    power (row 0) and its ratio to the inaudible allowance (step/2)^2, which
    is c^2 at the design point (row 1); a bin with zero allowance adds 0.
    """
    step = psycho.noise_step(tensor, partition, args.alpha, args.db_reference)
    noisy = psycho.psychoacoustic_noise(tensor, scale=args.noise, rng_seed=rng,
                                        step=step)
    added = noisy.amplitudes - tensor.amplitudes
    allowance = np.divide(step, 2.0, out=step)     # step is not read again
    terms = np.zeros_like(added)
    np.divide(added, allowance, out=terms, where=allowance > 0)
    sums[1] += _bin_sums(np.square(terms, out=terms))
    sums[0] += _bin_sums(np.multiply(added, added, out=terms))
    return noisy


def _bin_sums(x):
    """Per-bin sums of (M, N, C) x over blocks and channels, in the bytes of
    x.sum(axis=(0, 2)) for fewer than 8 channels (a WAV has 1 or 2): the
    channels in order, then the blocks in order. Summed a channel slice at
    a time, as numpy reduces a trailing axis of length 2 one pair per inner
    loop, 15x slower on a 1024-block stereo pass."""
    by_block = x[:, :, 0].copy()
    for c in range(1, x.shape[2]):
        by_block += x[:, :, c]
    return by_block.sum(axis=0)


def cmd_roundtrip(args):
    """Forward, noise and inverse in passes of PASS_BLOCKS blocks.

    Every stage is exact per block, so only the (T, C) input and output
    grow with the track. A pass's inverse laps onto the previous pass's
    last noisy block and fills output samples [m0 N - N/2, m1 N - N/2); the
    track ends are exact at both ends. One generator draws the noise pass
    by pass, the same stream as one draw.
    """
    bands, half = args.bands, args.bands // 2
    buf = _read_trimmed(args.wav, bands)
    samples, rate = buf.samples, buf.sample_rate_hz
    num_blocks = len(samples) // bands
    partition = psycho.bark_partition(rate, bands)
    rng = np.random.default_rng(args.seed)
    out = np.empty_like(samples)
    sums = np.zeros((2, bands))
    previous = np.empty((0, bands, buf.channels))   # last noisy block
    for m0, m1, tensor in _forward_passes(buf, bands):
        noisy = _add_noise_and_report(tensor, partition, rng, args, sums).amplitudes
        lapped = mdct_inverse(MdctTensor(np.concatenate([previous, noisy]), rate))
        first = (m0 - len(previous)) * bands       # sample 0 of lapped
        begin = m0 * bands - half if m0 else 0
        end = m1 * bands - half if m1 < num_blocks else len(samples)
        out[begin:end] = lapped.samples[begin - first:end - first]
        previous = noisy[-1:]
    audio_io.write_wav(audio_io.AudioBuffer(out, rate), args.out_wav)

    pool = partition.pooling_matrix()
    bins_per_band = np.maximum(pool.sum(axis=0), 1)
    means = sums / (num_blocks * buf.channels)
    mean_power = means[0] @ pool / bins_per_band
    ratio = means[1] @ pool / bins_per_band
    say(f"wrote {args.out_wav} (noise scale c = {args.noise})")
    print("band     mid_hz   mean_noise_power   noise/threshold ratio")
    for j in range(partition.band_count):
        flag = "  AUDIBLE" if ratio[j] > 2.0 else ""
        print(f"{j:4d} {partition.band_mid_hz[j]:10.1f}   {mean_power[j]:.6e}"
              f"   {ratio[j]:12.4f}{flag}")
    return EXIT_OK


def cmd_reduce(args):
    """Octave-folded levels of the channel-mean power, pass by pass.

    Passes are whole multiples of 2^folds blocks, so each reduces to
    exactly its rows [m0 / 2^k, m1 / 2^k) of level k: blur_time pairs
    blocks within the pass and fold_frequency works per block. Only each
    level's channel-mean grid outlives a pass; each PGM is then drawn a
    slice of columns at a time with its level's peak.
    """
    bands, folds = args.bands, args.folds
    if folds >= bands.bit_length():     # before 2**folds sizes anything
        raise ShapeError(f"{bands} bands do not halve {folds} times")
    buf = _read_trimmed(args.wav, bands * 2 ** folds)
    num_blocks = len(buf) // bands
    grids = [np.empty((num_blocks >> k, bands >> k)) for k in range(folds + 1)]
    for m0, m1, tensor in _forward_passes(buf, bands, 2 ** folds):
        reduced = spectral.reduce_spectrogram(spectral.spectrogram(tensor), folds)
        for k, values in enumerate(reduced.levels):
            grids[k][m0 >> k:m1 >> k] = values.mean(axis=2)
    os.makedirs(args.out_dir, exist_ok=True)
    for level, grid in enumerate(grids):
        peak = grid.max(initial=0.0)
        pixels = np.empty(grid.shape[::-1], dtype=np.uint8)
        for c0, c1 in _pass_bounds(len(grid)):
            pixels[:, c0:c1] = spectral.db_pixels(grid[c0:c1], args.db_floor,
                                                  peak)
        path = os.path.join(args.out_dir, f"level_{level}.pgm")
        spectral.write_pgm(pixels, path)
        say(f"level_{level}: {grid.shape[0]} x {grid.shape[1]} -> {path}")
    return EXIT_OK


def cmd_shapes(args):
    try:
        seed_blocks, seed_bands = (int(p) for p in args.seed.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--seed must look like MxN, got {args.seed!r}")
    cfg = ModelConfig(
        latent_dim=args.latent,
        num_blocks=args.blocks,
        seed_blocks=seed_blocks,
        seed_bands=seed_bands,
        channels=args.channels,
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
    rng = np.random.default_rng(app.train.rng_seed)
    dataset = _load_dataset(app, rng)
    say(f"training on {len(dataset)} samples of shape {app.model.output_shape}, "
        f"{app.train.iterations} iterations")

    every = max(1, app.train.iterations // 10)

    def progress(it, loss_d, loss_g):
        if it % every == 0 or it == app.train.iterations:
            say(f"  iter {it:6d}  loss_D {loss_d:+.4f}  loss_G {loss_g:+.4f}")

    result = train(dataset, app.model, app.train, args.out_dir, progress=progress)
    say(f"checkpoint: {result.checkpoint_path}")
    say(f"losses:     {result.csv_path}")
    return EXIT_OK


def _write_sample(z, params, cfg, sample_rate, path):
    """Generate from one (1, latent_dim) latent, invert and write to path.
    No array outlives the call."""
    with ad.no_grad():
        amplitudes = generator(ad.constant(z), params, cfg).data[0]
    audio_io.write_wav(mdct_inverse(MdctTensor(amplitudes, sample_rate)), path)


def cmd_sample(args):
    """Draw, generate, invert and write one sample at a time.

    Sampling memory does not grow with --count: nothing is held from one
    sample to the next. Sample i's latent is row i of the batch draw
    rng.standard_normal((count, latent_dim)), drawn as its own row.
    """
    params, cfg, iteration, extra = load_checkpoint(args.checkpoint)
    sample_rate = extra.get("sample_rate_hz", args.sample_rate)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    started = time.perf_counter()
    for i in range(args.count):
        z = rng.standard_normal((1, cfg.latent_dim))
        _write_sample(z, params, cfg, sample_rate,
                      os.path.join(args.out_dir, f"sample_{i:03d}.wav"))
    elapsed = time.perf_counter() - started
    duration = cfg.output_shape[0] * cfg.output_shape[1] / sample_rate
    say(f"wrote {args.count} samples of {duration:.2f}s at {sample_rate} Hz "
        f"(checkpoint iteration {iteration}) in {elapsed:.2f}s wall time")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="octaudio",
                     description="MDCT analysis, psychoacoustics and toy "
                                 "adversarial training for audio")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {      # options of several commands; each names those it reads
        "--bands": dict(type=_BANDS, default=128,
                        help="MDCT filter bands (power of two, default 128)"),
        "--alpha": dict(type=_POSITIVE, default=psycho.DEFAULT_ALPHA),
        "--db-reference": dict(type=_FINITE, default=psycho.DEFAULT_DB_REFERENCE),
        "--db-floor": dict(type=_BELOW_ZERO, default=spectral.DEFAULT_DB_FLOOR),
    }

    def add_shared(p, *names):
        for name in names:
            p.add_argument(name, **shared[name])

    p = sub.add_parser("analyze", help="spectrograms, tonality and thresholds")
    p.add_argument("wav")
    p.add_argument("out_dir")
    add_shared(p, "--bands", "--alpha", "--db-reference", "--db-floor")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("roundtrip",
                       help="WAV -> MDCT -> psychoacoustic noise -> WAV")
    p.add_argument("wav")
    p.add_argument("out_wav")
    p.add_argument("--noise", type=_SCALE, default=1.0, help="noise scale c")
    p.add_argument("--seed", type=_NATURAL, default=0)
    add_shared(p, "--bands", "--alpha", "--db-reference")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("reduce", help="octave-folded reduced spectrograms")
    p.add_argument("wav")
    p.add_argument("out_dir")
    p.add_argument("--folds", type=_NATURAL, default=2)
    add_shared(p, "--bands", "--db-floor")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("shapes", help="model activation shapes and parameter counts")
    p.add_argument("--blocks", type=int, default=6)
    p.add_argument("--seed", default="4x2", help="seed shape MxN (default 4x2)")
    p.add_argument("--latent", type=int, default=512)
    p.add_argument("--channels", type=_int_list, default=None,
                   help="comma-separated schedule, deepest first")
    p.add_argument("--output-channels", type=int, default=2)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("train", help="train the toy adversarial model")
    p.add_argument("config")
    p.add_argument("--out-dir", default="train_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw WAV samples from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("out_dir")
    p.add_argument("--count", type=_COUNT, default=4)
    p.add_argument("--seed", type=_NATURAL, default=0)
    p.add_argument("--sample-rate", type=_RATE, default=22016,
                   help="fallback rate if the checkpoint has none")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):     # the finiteness checks set the exit code
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, UnsupportedFormat, IoError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ShapeError, DivergenceError, ValueError, MemoryError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines stream.
The training-trend criterion executes a seed-pinned 2000-iteration toy run
twice (once for the trend, once more for bit-for-bit determinism), which
dominates the suite's runtime.
"""

import functools
import os
import time

import numpy as np
import pytest

from octaudio.audio_io import AudioBuffer
from octaudio.cli import main
from octaudio.mdct import (
    mdct_forward_fast,
    mdct_forward_naive,
    mdct_inverse,
    vorbis_window,
)
from octaudio.nn import autodiff as ad
from octaudio.nn.layers import (
    concat_bands,
    conv2d,
    leaky_relu,
    minibatch_stddev,
    slice_bands,
    transposed_conv2d,
)
from octaudio.nn.model import (
    ModelConfig,
    discriminator,
    discriminator_param_shapes,
    init_params,
)
from octaudio.nn.train import TrainConfig, train, wgan_gp_losses
from octaudio.psycho import (
    absolute_threshold_db,
    bark_partition,
    band_energies,
    compute_thresholds,
    noise_sigma,
    psychoacoustic_noise,
    quantization_step,
    quantize,
    spreading_gain_db,
    tonality,
    write_thresholds_csv,
)
from octaudio.spectral import reduce_spectrogram, spectrogram
from openblas_info import numpy_dispatch, openblas_core

FS, N = 22016, 128


def criterion(number, text, limit_seconds):
    """Wrap a test so it prints one line and enforces its runtime cap."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL - {text}")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {number:2d} PASS - {text} ({elapsed:.2f}s)")
            assert elapsed < limit_seconds, (
                f"criterion {number} exceeded its {limit_seconds}s budget"
            )
        return run
    return decorate


# -- shared fixtures --------------------------------------------------------

TOY_MODEL = dict(latent_dim=32, num_blocks=2, seed_blocks=4, seed_bands=4,
                 channels=(48, 24, 12), output_channels=1)
TOY_TRAIN = dict(learning_rate=1e-3, adam_beta1=0.0, adam_beta2=0.9,
                 n_critic=2, gp_lambda=10.0, drift_epsilon=0.001,
                 batch_size=8, noise_scale=1.0, rng_seed=1, iterations=2000)
TOY_FS = 2048


def pure_tone_corpus(count=64, num_blocks=64, bands=16):
    """Pure sine tones at random frequency/amplitude/phase."""
    rng = np.random.default_rng(42)
    samples = num_blocks * bands
    t = np.arange(samples) / TOY_FS
    corpus = []
    for _ in range(count):
        freq = rng.uniform(110.0, 880.0)
        amp = rng.uniform(0.3, 0.8)
        wave = amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        corpus.append(mdct_forward_fast(AudioBuffer(wave, TOY_FS), bands))
    return corpus


@pytest.fixture(scope="module")
def toy_training(tmp_path_factory):
    """The criterion-12 run plus an identical re-run for criterion 14."""
    corpus = pure_tone_corpus()
    results = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"train_{tag}")
        started = time.perf_counter()
        result = train(corpus, ModelConfig(**TOY_MODEL),
                       TrainConfig(**TOY_TRAIN), out)
        results.append((result, time.perf_counter() - started))
    return results


@pytest.fixture(scope="module")
def tone_1100_blocks():
    t = np.arange(1100 * N) / FS
    return mdct_forward_fast(
        AudioBuffer(0.4 * np.sin(2 * np.pi * 440.0 * t), FS), N
    )


# -- criteria ---------------------------------------------------------------

@criterion(1, "perfect reconstruction <= 1e-10 for 50 random signals per N", 10)
def test_criterion_1_perfect_reconstruction():
    rng = np.random.default_rng(1)
    for n in (8, 32, 128, 512):
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, 4 * n)
            buf = AudioBuffer(x, FS)
            back = mdct_inverse(mdct_forward_naive(buf, n))
            assert np.max(np.abs(back.samples[:, 0] - x)) <= 1e-10


@criterion(2, "window symmetry and Princen-Bradley identity <= 1e-12", 1)
def test_criterion_2_window_identities():
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        w = vorbis_window(n)
        assert np.max(np.abs(w - w[::-1])) <= 1e-12
        assert np.max(np.abs(w[:n] ** 2 + w[n:] ** 2 - 1.0)) <= 1e-12


@criterion(3, "fast transform equals the direct oracle <= 1e-9 up to N=1024", 30)
def test_criterion_3_fast_oracle():
    rng = np.random.default_rng(3)
    for n in (8, 32, 128, 512, 1024):
        buf = AudioBuffer(rng.uniform(-1.0, 1.0, 8 * n), FS)
        fast = mdct_forward_fast(buf, n)
        naive = mdct_forward_naive(buf, n)
        assert np.max(np.abs(fast.amplitudes - naive.amplitudes)) <= 1e-9


@criterion(4, "hearing-threshold anchors and zero spreading at dz=0", 1)
def test_criterion_4_psycho_anchors():
    assert abs(absolute_threshold_db(1000.0) - 3.369) <= 0.001
    level_33 = absolute_threshold_db(3300.0)
    assert abs(level_33 - (-4.98)) <= 0.01
    grid = np.arange(0.5, 8.01, 0.1) * 1000.0
    assert level_33 <= absolute_threshold_db(grid).min() + 1e-12
    assert abs(spreading_gain_db(0)) <= 0.01


@criterion(5, "tonality limits: single bin 1, flat 0, noise <= 0.1, tone >= 0.9", 10)
def test_criterion_5_tonality_limits():
    single = np.zeros(N)
    single[17] = 0.3
    assert tonality(single) == 1.0
    assert tonality(np.full(N, 0.42)) == 0.0
    rng = np.random.default_rng(5)
    noise_blocks = mdct_forward_fast(
        AudioBuffer(rng.standard_normal(100 * N) * 0.3, FS), N
    )
    assert np.mean(tonality(noise_blocks.amplitudes[:, :, 0])) <= 0.1
    t = np.arange(FS) / FS
    tone = mdct_forward_fast(
        AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t)[: (FS // N) * N], FS), N
    )
    assert np.mean(tonality(tone.amplitudes[:, :, 0])) >= 0.9


@criterion(6, "440 Hz tone masks its -30 dB first harmonic at 880 Hz", 1)
def test_criterion_6_masking_reproduction():
    t = np.arange(8 * N) / FS
    h2 = 10.0 ** (-30.0 / 20.0)
    wave = 0.5 * (
        np.sin(2 * np.pi * 440.0 * t)
        + h2 * np.sin(2 * np.pi * 880.0 * t)
        + 0.1 * np.sin(2 * np.pi * 1760.0 * t)
        + 0.1 * np.sin(2 * np.pi * 3520.0 * t)
    )
    tensor = mdct_forward_naive(AudioBuffer(wave, FS), N)
    partition = bark_partition(FS, N)
    thresholds = compute_thresholds(tensor.amplitudes, partition)
    block = 4
    energies = band_energies(tensor.amplitudes[block, :, 0], partition)
    band_880 = int(np.searchsorted(partition.band_edges_hz, 880.0, "right") - 1)
    assert thresholds.combined[block, band_880, 0] > energies[band_880]


@criterion(7, "quantization error <= step/2 for 1e5 random amplitudes", 5)
def test_criterion_7_quantization_bound():
    rng = np.random.default_rng(7)
    amps = rng.uniform(-100.0, 100.0, 100_000)
    steps = rng.uniform(0.0, 2.0, 100_000)
    err = np.abs(amps - quantize(amps, steps))
    assert np.all(err <= steps / 2 + 1e-15)


@criterion(8, "noise layer: c=0 identity; c=1 per-band power within 20%", 60)
def test_criterion_8_noise_statistics(tone_1100_blocks):
    tensor = tone_1100_blocks
    partition = bark_partition(FS, N)
    sigma = noise_sigma(tensor.amplitudes, partition)
    same = psychoacoustic_noise(tensor.amplitudes, sigma, scale=0.0, rng_seed=3)
    assert np.array_equal(same, tensor.amplitudes)

    noisy = psychoacoustic_noise(tensor.amplitudes, sigma, scale=1.0, rng_seed=3)
    added = noisy - tensor.amplitudes
    predicted = quantization_step(
        compute_thresholds(tensor.amplitudes, partition).combined, partition
    ) / 2.0
    pool = partition.pooling_matrix()
    normalized = (added[:, :, 0] / predicted[:, :, 0]) ** 2
    per_band = (normalized @ pool).sum(axis=0) / (
        len(tensor.amplitudes) * pool.sum(axis=0)
    )
    assert np.all(per_band >= 0.8)
    assert np.all(per_band <= 1.2)


@criterion(9, "shape command reproduces 16384x128x2 and 1024x128x2", 1)
def test_criterion_9_shape_algebra(capsys):
    assert main(["shapes", "--blocks", "6", "--seed", "4x2", "--latent", "512"]) == 0
    assert "16384 x 128 x 2" in capsys.readouterr().out
    assert main(["shapes", "--blocks", "5", "--seed", "1x4", "--latent", "512"]) == 0
    assert "1024 x 128 x 2" in capsys.readouterr().out


def _fd_gradients(scalar_fn, leaves, h):
    grads = []
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        out = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(scalar_fn().data)
            flat[i] = orig - h
            down = float(scalar_fn().data)
            flat[i] = orig
            out[i] = (up - down) / (2 * h)
        grads.append(out.reshape(leaf.shape))
    return grads


def _max_relative_error(scalar_fn, leaves, h):
    analytic = ad.grad(scalar_fn(), leaves)
    numeric = _fd_gradients(scalar_fn, leaves, h)
    worst = 0.0
    for got, want in zip(analytic, numeric):
        scale = max(np.max(np.abs(want)), 1.0)
        worst = max(worst, np.max(np.abs(got.data - want)) / scale)
    return worst


@criterion(10, "gradients: primitives <= 1e-4, discriminator and GP <= 1e-3", 120)
def test_criterion_10_gradient_checks():
    rng = np.random.default_rng(10)

    def away_from_kinks(shape, margin=0.05):
        data = rng.standard_normal(shape)
        data[np.abs(data) < margin] = margin
        return ad.parameter(data)

    # primitives at h = 1e-5
    x = away_from_kinks((2, 4, 4, 3))
    w = ad.parameter(rng.standard_normal((3, 3, 3, 2)) * 0.5)
    b = ad.parameter(rng.standard_normal(2) * 0.1)
    checks = [
        (lambda: ad.sum_along(ad.power(conv2d(x, w, b, (2, 2)), 2.0)), [x, w, b]),
        (lambda: ad.sum_along(ad.power(ad.add(x, ad.scale(x, 0.3)), 2.0)), [x]),
        (lambda: ad.sum_along(ad.power(slice_bands(x, 1, 3), 2.0)), [x]),
        (lambda: ad.sum_along(
            ad.power(concat_bands(slice_bands(x, 0, 2), slice_bands(x, 2, 4)), 2.0)
        ), [x]),
        (lambda: ad.sum_along(ad.power(leaky_relu(x, 0.2), 2.0)), [x]),
        (lambda: ad.sum_along(ad.power(minibatch_stddev(x), 2.0)), [x]),
    ]
    wt = ad.parameter(rng.standard_normal((8, 3, 3, 2)) * 0.5)
    checks.append((
        lambda: ad.sum_along(ad.power(transposed_conv2d(x, wt, b, (4, 1)), 2.0)),
        [x, wt, b],
    ))
    xd = away_from_kinks((3, 5))
    wd = ad.parameter(rng.standard_normal((5, 2)))
    bd = ad.parameter(rng.standard_normal(2) * 0.1)
    checks.append((
        lambda: ad.sum_along(ad.power(ad.affine(xd, wd, bd), 2.0)), [xd, wd, bd]
    ))
    for fn, leaves in checks:
        assert _max_relative_error(fn, leaves, h=1e-5) <= 1e-4

    # full discriminator and gradient-penalty parameter gradients; h = 1e-6
    # keeps central differences off the leaky-ReLU kinks
    cfg = ModelConfig(latent_dim=4, num_blocks=1, seed_blocks=2, seed_bands=2,
                      channels=(3, 2), output_channels=1)
    d_params = init_params(discriminator_param_shapes(cfg), rng)
    data = rng.standard_normal((2, 8, 4, 1))
    leaves = [d_params[k] for k in sorted(d_params)]

    def disc_sum():
        return ad.sum_along(discriminator(ad.constant(data), d_params, cfg))

    assert _max_relative_error(disc_sum, leaves, h=1e-6) <= 1e-3

    fake = rng.standard_normal((2, 8, 4, 1))

    def gp_loss():
        return wgan_gp_losses(
            data, fake,
            lambda t: discriminator(t, d_params, cfg),
            gp_lambda=10.0, drift_epsilon=0.001,
            rng=np.random.default_rng(77),
        )[0]

    assert _max_relative_error(gp_loss, leaves, h=1e-6) <= 1e-3


@criterion(11, "minibatch stddev: constant batch -> exact zeros; hand case", 1)
def test_criterion_11_minibatch_stddev():
    const = minibatch_stddev(ad.constant(np.full((5, 3, 2, 2), 0.77)))
    assert np.array_equal(const.data[..., -1], np.zeros((5, 3, 2)))
    pair = minibatch_stddev(
        ad.constant(np.array([0.9, -0.9]).reshape(2, 1, 1, 1))
    )
    np.testing.assert_allclose(pair.data[..., -1], 0.9, rtol=1e-12)


@criterion(12, "toy 2000-iteration training: no NaN, gap declines, tonality up",
           1800)
def test_criterion_12_training_trend(toy_training):
    (result, elapsed), _ = toy_training
    assert np.all(np.isfinite(result.wasserstein))
    assert np.all(np.isfinite(result.gen_tonality))

    kernel = np.ones(100) / 100.0
    smoothed = np.convolve(result.wasserstein, kernel, mode="valid")
    peak_at = int(np.argmax(smoothed))
    peak = smoothed[peak_at]
    final = smoothed[-1]
    # the seeded trajectory depends on the BLAS kernel, the thread count and
    # numpy's SIMD dispatch (README, Tests), so the line names all three, and
    # is printed before the checks
    print(f"             training wall time {elapsed / 60:.1f} min; smoothed gap "
          f"{peak:.2f} at {peak_at} -> {final:.2f}; tonality "
          f"{result.gen_tonality[0]:.3f} -> {result.gen_tonality[-1]:.3f}; "
          f"OpenBLAS core {openblas_core()}, numpy dispatch {numpy_dispatch()}, "
          f"OPENBLAS_NUM_THREADS "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"os.cpu_count() {os.cpu_count()}")
    # the gap rises while the critic warms up, then declines as the
    # generator improves; require a clear decline from the peak
    assert peak_at < int(0.75 * len(smoothed))
    assert final <= 0.9 * peak

    assert result.gen_tonality[-1] > result.gen_tonality[0]
    assert elapsed < 1800.0


@criterion(13, "reduced spectrogram: stack collapses >= 70%; fold conserves", 5)
def test_criterion_13_reduced_spectrogram():
    t = np.arange(16 * N) / FS
    wave = 0.3 * (
        np.sin(2 * np.pi * 1760.0 * t)
        + np.sin(2 * np.pi * 3520.0 * t)
        + np.sin(2 * np.pi * 7040.0 * t)
    )
    spec = spectrogram(mdct_forward_fast(AudioBuffer(wave, FS), N).amplitudes)
    from octaudio.spectral import fold_frequency

    folded = fold_frequency(spec)
    total = spec.sum()
    assert abs(folded.sum() - total) <= 1e-12 * total

    profile = reduce_spectrogram(spec, 2)[-1][:, :, 0].sum(axis=0)
    assert profile.max() >= 0.7 * profile.sum()


@criterion(14, "criteria 8 and 12 reruns are byte-identical", 60)
def test_criterion_14_determinism(toy_training, tone_1100_blocks, tmp_path):
    (first, _), (second, _) = toy_training
    with open(first.csv_path, "rb") as fh:
        csv_a = fh.read()
    with open(second.csv_path, "rb") as fh:
        csv_b = fh.read()
    assert csv_a == csv_b
    with open(first.checkpoint_path, "rb") as fh:
        ck_a = fh.read()
    with open(second.checkpoint_path, "rb") as fh:
        ck_b = fh.read()
    assert ck_a == ck_b

    amps = tone_1100_blocks.amplitudes
    partition = bark_partition(FS, N)
    runs = []
    for tag in ("a", "b"):
        noisy = psychoacoustic_noise(amps, noise_sigma(amps, partition),
                                     scale=1.0, rng_seed=3)
        path = tmp_path / f"thresholds_{tag}.csv"
        write_thresholds_csv(noisy, partition, path)
        runs.append((noisy, path.read_bytes()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]

"""WGAN-GP training loop with the inaudible-noise input layer.

One iteration is one critic update; every n_critic-th iteration also updates
the generator. The critic loss is

    E[D(fake)] - E[D(real)] + gp_lambda * E[(||grad_xhat D(xhat)|| - 1)^2]
    + drift_epsilon * E[D(real)^2]

with xhat drawn uniformly on the chord between (noisy) real and fake
samples, and the generator loss is -E[D(fake)]. train() adds the noise, and
only train(): each batch the critic sees, real or fake, in the critic and the
generator step, first receives gaussian noise scaled by the psychoacoustic
quantization step of its own spectra. The noise std is treated as constant
by backpropagation; noise_scale = 0 adds none and draws none.

Everything is driven by a single seeded generator, so a rerun with the same
seed reproduces losses, CSV and checkpoints bit for bit. Per iteration it
draws the batch picks, z, the real noise, the fake noise and the
interpolation weights u; an iteration that also updates the generator then
draws z2 and the noise of the generator's fake.

Each step's graph is dropped as soon as its gradients are taken, before its
Adam update; only the loss is kept, as a float. So the critic's graph is
gone before the generator step records its own, and no graph of one
iteration is alive while the next one is recorded.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DivergenceError, ShapeError
from ..psycho import (
    DEFAULT_ALPHA,
    DEFAULT_DB_REFERENCE,
    bark_partition,
    noise_sigma,
    tonality,
)
from . import autodiff as ad
from .model import (
    discriminator,
    discriminator_param_shapes,
    generator,
    generator_param_shapes,
    init_params,
    save_checkpoint,
)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.9
    n_critic: int = 2
    gp_lambda: float = 10.0
    drift_epsilon: float = 0.001
    batch_size: int = 8
    noise_scale: float = 1.0
    rng_seed: int = 0
    iterations: int = 1000
    checkpoint_every: int = 0
    alpha: float = DEFAULT_ALPHA
    db_reference: float = DEFAULT_DB_REFERENCE
    freeze_blocks: tuple = ()

    def __post_init__(self):
        # each message names only the keys that break its rule
        rules = (
            (("learning_rate", "gp_lambda", "drift_epsilon", "noise_scale",
              "alpha", "db_reference"), math.isfinite, "must be finite"),
            (("learning_rate", "alpha"), lambda v: v > 0, "must be > 0"),
            (("batch_size", "n_critic"), lambda v: v >= 1, "must be >= 1"),
            (("iterations", "gp_lambda", "drift_epsilon", "noise_scale",
              "checkpoint_every", "rng_seed"), lambda v: v >= 0, "must be >= 0"),
            (("adam_beta1", "adam_beta2"), lambda v: 0 <= v < 1,
             "must lie in [0, 1)"),
        )
        for keys, ok, rule in rules:
            failing = [k for k in keys if not ok(getattr(self, k))]
            if failing:
                raise ConfigError(f"{', '.join(failing)} {rule}")
        self.freeze_blocks = tuple(int(b) for b in self.freeze_blocks)


ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction, updating parameters in place."""

    def __init__(self, params, lr, beta1, beta2):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}

    def step(self, params, grads):
        """Update every parameter named in grads; others stay frozen."""
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            param = params[name]
            m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            param.data = param.data - self.lr * (m / correct1) / (
                np.sqrt(v / correct2) + ADAM_EPS
            )


def quantization_noise_sigma(batch, partition, alpha, db_reference):
    """Per-bin noise std of each (B, M, N, C) sample's own thresholds."""
    return noise_sigma(batch, partition, alpha, db_reference)


def wgan_gp_losses(real, fake, discriminator_fn, gp_lambda, drift_epsilon, rng):
    """Critic loss plus scalar diagnostics: wasserstein, penalty, d_fake.

    real and fake are (B, M, N, C) arrays, both already noised. The only
    draw from rng is xhat's interpolation weights.
    """
    if real.shape != fake.shape:
        raise ShapeError(f"real {real.shape} and fake {fake.shape} differ")
    d_real = discriminator_fn(ad.constant(real))
    d_fake = discriminator_fn(ad.constant(fake))

    u = rng.uniform(size=(real.shape[0], 1, 1, 1))
    xhat = ad.Tensor(u * real + (1.0 - u) * fake, requires_grad=True)
    (grad_x,) = ad.grad(
        ad.sum_along(discriminator_fn(xhat)), [xhat], create_graph=True
    )
    norm = ad.sqrt(ad.sum_along(ad.power(grad_x, 2.0), axis=(1, 2, 3)))
    penalty = ad.mean(ad.power(ad.sub(norm, 1.0), 2.0))

    wasserstein = float(np.mean(d_real.data) - np.mean(d_fake.data))
    loss_d = ad.add(
        ad.sub(ad.mean(d_fake), ad.mean(d_real)),
        ad.add(
            ad.scale(penalty, gp_lambda),
            ad.scale(ad.mean(ad.power(d_real, 2.0)), drift_epsilon),
        ),
    )
    return loss_d, {
        "wasserstein": wasserstein,
        "penalty": float(penalty.data),
        "d_fake": float(np.mean(d_fake.data)),     # mean D(fake)
    }


def generator_loss(fake, discriminator_fn):
    """-mean D(fake): the generator loss; fake is attached to the generator."""
    return ad.scale(ad.mean(discriminator_fn(fake)), -1.0)


@dataclass
class TrainResult:
    checkpoint_path: str
    csv_path: str
    wasserstein: np.ndarray
    gen_tonality: np.ndarray


def train(dataset, model_cfg, train_cfg, out_dir, progress=None):
    """Train on a list of MdctTensor samples; returns paths and histories.

    Raises DivergenceError (with the iteration index) if a loss goes
    non-finite, ShapeError if dataset samples do not match the model output.
    A run that fails before writing its first row removes its losses.csv,
    and out_dir if the run created it.
    """
    if not dataset:
        raise ConfigError("dataset is empty")
    expected = model_cfg.output_shape
    stack = []
    for sample in dataset:
        if sample.amplitudes.shape != expected:
            raise ShapeError(
                f"dataset sample {sample.amplitudes.shape} != model output {expected}"
            )
        stack.append(sample.amplitudes)
    data = np.stack(stack)
    sample_rate = dataset[0].sample_rate_hz

    rng = np.random.default_rng(train_cfg.rng_seed)
    g_params = init_params(generator_param_shapes(model_cfg), rng)
    d_params = init_params(discriminator_param_shapes(model_cfg), rng)
    frozen = {f"block{b}." for b in train_cfg.freeze_blocks}

    def trainable(name):
        return not any(tag in name for tag in frozen)

    g_names = sorted(filter(trainable, g_params))
    d_names = sorted(filter(trainable, d_params))
    adam_g = Adam(g_params, train_cfg.learning_rate, train_cfg.adam_beta1,
                  train_cfg.adam_beta2)
    adam_d = Adam(d_params, train_cfg.learning_rate, train_cfg.adam_beta1,
                  train_cfg.adam_beta2)

    partition = bark_partition(sample_rate, expected[1])

    def noise(batch):
        if train_cfg.noise_scale == 0:
            return 0.0
        sigma = quantization_noise_sigma(
            batch, partition, train_cfg.alpha, train_cfg.db_reference)
        return rng.standard_normal(batch.shape) * (train_cfg.noise_scale * sigma)

    def d_fn(x):
        return discriminator(x, d_params, model_cfg)

    made_dir = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "losses.csv")
    checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
    wasserstein_hist = np.zeros(train_cfg.iterations)
    tonality_hist = np.zeros(train_cfg.iterations)

    rows = 0
    fh = open(csv_path, "w", newline="")
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss_D", "loss_G", "wasserstein_estimate",
                             "gen_tonality"])
            for it in range(1, train_cfg.iterations + 1):
                picks = rng.integers(0, len(data), size=train_cfg.batch_size)
                real = data[picks]
                z = rng.standard_normal((train_cfg.batch_size, model_cfg.latent_dim))
                with ad.no_grad():
                    fake = generator(ad.constant(z), g_params, model_cfg).data

                loss_d, stats = wgan_gp_losses(
                    real + noise(real), fake + noise(fake),
                    d_fn, train_cfg.gp_lambda, train_cfg.drift_epsilon, rng,
                )
                d_grads = ad.grad(loss_d, [d_params[k] for k in d_names])
                loss_d_value = float(loss_d.data)
                del loss_d
                adam_d.step(d_params, dict(zip(d_names, (g.data for g in d_grads))))

                if it % train_cfg.n_critic == 0:
                    z2 = rng.standard_normal(
                        (train_cfg.batch_size, model_cfg.latent_dim)
                    )
                    fake_g = generator(ad.constant(z2), g_params, model_cfg)
                    fake_g = ad.add(fake_g, ad.constant(noise(fake_g.data)))
                    loss_g = generator_loss(fake_g, d_fn)
                    g_grads = ad.grad(loss_g, [g_params[k] for k in g_names])
                    loss_g_value = float(loss_g.data)
                    del z2, fake_g, loss_g
                    adam_g.step(g_params, dict(zip(g_names, (g.data for g in g_grads))))
                else:
                    loss_g_value = -stats["d_fake"]    # of the critic step's fake

                gen_tau = float(np.mean(tonality(np.moveaxis(fake, 3, 1))))
                if not (np.isfinite(loss_d_value) and np.isfinite(loss_g_value)):
                    raise DivergenceError(it)

                wasserstein_hist[it - 1] = stats["wasserstein"]
                tonality_hist[it - 1] = gen_tau
                writer.writerow([
                    it,
                    f"{loss_d_value:.17g}",
                    f"{loss_g_value:.17g}",
                    f"{stats['wasserstein']:.17g}",
                    f"{gen_tau:.17g}",
                ])
                rows = it
                if train_cfg.checkpoint_every and it % train_cfg.checkpoint_every == 0:
                    save_checkpoint(
                        os.path.join(out_dir, f"checkpoint_{it:06d}.bin"),
                        {**g_params, **d_params}, model_cfg, it,
                        extra={"sample_rate_hz": sample_rate},
                    )
                if progress is not None:
                    progress(it, loss_d_value, loss_g_value)
    except BaseException:
        # a run that fails before its first row leaves no output behind
        if not rows:
            os.remove(csv_path)
            if made_dir:
                os.rmdir(out_dir)
        raise

    save_checkpoint(checkpoint_path, {**g_params, **d_params}, model_cfg,
                    train_cfg.iterations, extra={"sample_rate_hz": sample_rate})
    return TrainResult(checkpoint_path, csv_path, wasserstein_hist, tonality_hist)

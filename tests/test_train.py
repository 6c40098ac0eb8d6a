import dataclasses
import math
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaudio.config import load_config
from octaudio.datasets import synthetic_tone_dataset
from octaudio.errors import ConfigError, DivergenceError, ShapeError
from octaudio.mdct import MdctTensor
from octaudio.nn import autodiff as ad
from octaudio.nn import model as model_module
from octaudio.nn.layers import _pad_before, _phase_kernel
from octaudio.nn.model import (
    ModelConfig,
    discriminator,
    discriminator_param_shapes,
    generator,
    generator_param_shapes,
    init_params,
)
from octaudio.nn.train import (
    Adam,
    TrainConfig,
    generator_loss,
    quantization_noise_sigma,
    train,
    wgan_gp_losses,
)
from octaudio.psycho import bark_partition


def sum_critic(x):
    return ad.sum_along(x, axis=(1, 2, 3))


def test_linear_critic_penalty_closed_form():
    # for D(x) = sum(x), grad norm is sqrt(#elements) exactly
    rng = np.random.default_rng(0)
    real = rng.standard_normal((3, 4, 4, 2))
    fake = rng.standard_normal((3, 4, 4, 2))
    loss_d, stats = wgan_gp_losses(
        real, fake, sum_critic, gp_lambda=10.0,
        drift_epsilon=0.0, rng=np.random.default_rng(1),
    )
    loss_g = generator_loss(ad.constant(fake), sum_critic)
    n_elements = 4 * 4 * 2
    expected_penalty = (np.sqrt(n_elements) - 1.0) ** 2
    assert stats["penalty"] == pytest.approx(expected_penalty, rel=1e-12)
    expected_d = fake.sum(axis=(1, 2, 3)).mean() - real.sum(axis=(1, 2, 3)).mean()
    assert float(loss_d.data) == pytest.approx(
        expected_d + 10.0 * expected_penalty, rel=1e-12
    )
    assert float(loss_g.data) == pytest.approx(
        -fake.sum(axis=(1, 2, 3)).mean(), rel=1e-12
    )


def noise_fn_critic_loss(real, fake, discriminator_fn, gp_lambda, drift_epsilon,
                         rng, noise_fn):
    """Oracle: the critic loss as it ran when it noised both batches itself,
    through a noise_fn(batch, rng) callback, before drawing u."""
    real_in = ad.constant(real + noise_fn(real, rng))
    fake_in = ad.add(fake, ad.constant(noise_fn(fake.data, rng)))
    d_real = discriminator_fn(real_in)
    d_fake = discriminator_fn(fake_in)
    u = rng.uniform(size=(real.shape[0], 1, 1, 1))
    xhat = ad.Tensor(u * real_in.data + (1.0 - u) * fake_in.data, requires_grad=True)
    (grad_x,) = ad.grad(
        ad.sum_along(discriminator_fn(xhat)), [xhat], create_graph=True
    )
    norm = ad.power(ad.sum_along(ad.power(grad_x, 2.0), axis=(1, 2, 3)), 0.5)
    penalty = ad.mean(ad.power(ad.sub(norm, 1.0), 2.0))
    wasserstein = float(np.mean(d_real.data) - np.mean(d_fake.data))
    loss_d = ad.add(
        ad.sub(ad.mean(d_fake), ad.mean(d_real)),
        ad.add(
            ad.scale(penalty, gp_lambda),
            ad.scale(ad.mean(ad.power(d_real, 2.0)), drift_epsilon),
        ),
    )
    return loss_d, {"wasserstein": wasserstein, "penalty": float(penalty.data),
                    "d_fake": float(np.mean(d_fake.data))}


@pytest.mark.deep
@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 3),
       num_blocks=st.integers(0, 1), seed_blocks=st.integers(1, 2),
       seed_bands=st.sampled_from([2, 4]), output_channels=st.sampled_from([1, 2]),
       scale=st.floats(0.01, 10.0))
def test_critic_step_matches_noise_fn_oracle(seed, batch, num_blocks, seed_blocks,
                                             seed_bands, output_channels, scale):
    # train()'s critic step, noising real then fake before wgan_gp_losses,
    # is bit for bit the critic loss that drew the noise itself
    cfg = ModelConfig(latent_dim=4, num_blocks=num_blocks, seed_blocks=seed_blocks,
                      seed_bands=seed_bands, channels=(3, 2)[:num_blocks + 1],
                      output_channels=output_channels)
    rng = np.random.default_rng(seed)
    d_params = init_params(discriminator_param_shapes(cfg), rng)
    real = 0.1 * rng.standard_normal((batch, *cfg.output_shape))
    fake = ad.constant(0.1 * rng.standard_normal(real.shape))
    partition = bark_partition(2048, cfg.output_shape[1])

    def sigma(x):
        return scale * quantization_noise_sigma(x, partition, 0.3, 96.0)

    def critic(x):
        return discriminator(x, d_params, cfg)

    names = sorted(d_params)
    results = []
    for moved in (False, True):
        rng = np.random.default_rng(seed + 1)
        if moved:
            def noise(x):
                return rng.standard_normal(x.shape) * sigma(x)

            loss_d, stats = wgan_gp_losses(
                real + noise(real), fake.data + noise(fake.data),
                critic, 10.0, 0.001, rng,
            )
        else:
            loss_d, stats = noise_fn_critic_loss(
                real, fake, critic, 10.0, 0.001, rng,
                lambda x, noise_rng: noise_rng.standard_normal(x.shape) * sigma(x),
            )
        grads = ad.grad(loss_d, [d_params[k] for k in names])
        results.append((loss_d.data.tobytes(), stats,
                        [g.data.tobytes() for g in grads],
                        rng.bit_generator.state))
    assert results[0] == results[1]


def test_drift_term_zero_for_zero_critic():
    def zero_critic(x):
        return ad.scale(ad.sum_along(x, axis=(1, 2, 3)), 0.0)

    rng = np.random.default_rng(2)
    real = rng.standard_normal((2, 2, 4, 1))
    loss_d, _ = wgan_gp_losses(
        real, real.copy(), zero_critic, gp_lambda=0.0,
        drift_epsilon=5.0, rng=np.random.default_rng(3),
    )
    # D == 0 everywhere: only the (0-1)^2 gradient penalty term could remain,
    # and it is disabled; drift over D(real)^2 is exactly zero
    assert float(loss_d.data) == pytest.approx(0.0, abs=1e-15)


def test_wgan_shapes_must_match():
    with pytest.raises(ShapeError):
        wgan_gp_losses(
            np.zeros((2, 4, 4, 1)), np.zeros((2, 4, 2, 1)),
            sum_critic, 10.0, 0.0, np.random.default_rng(0),
        )


def test_gradient_penalty_parameter_gradient_matches_fd():
    # second-order path: d loss_D / d theta where loss_D includes the
    # gradient penalty of a small nonlinear critic
    cfg = ModelConfig(latent_dim=4, num_blocks=1, seed_blocks=2, seed_bands=2,
                      channels=(3, 2), output_channels=1)
    rng = np.random.default_rng(5)
    d_params = init_params(discriminator_param_shapes(cfg), rng)
    real = rng.standard_normal((2, 8, 4, 1))
    fake = rng.standard_normal((2, 8, 4, 1))

    def critic(x):
        return discriminator(x, d_params, cfg)

    def loss():
        return wgan_gp_losses(
            real, fake, critic, gp_lambda=10.0,
            drift_epsilon=0.001, rng=np.random.default_rng(7),
        )[0]

    names = sorted(d_params)
    leaves = [d_params[k] for k in names]
    analytic = ad.grad(loss(), leaves)
    h = 1e-6
    for leaf, got in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        gflat = got.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss().data)
            flat[i] = orig - h
            down = float(loss().data)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-3)
            assert abs(fd - gflat[i]) / denom <= 1e-3


def test_adam_moves_toward_minimum():
    params = {"w": ad.parameter(np.array([4.0]))}
    opt = Adam(params, lr=0.1, beta1=0.5, beta2=0.9)
    for _ in range(200):
        grads = {"w": 2.0 * params["w"].data}
        opt.step(params, grads)
    assert abs(params["w"].data[0]) < 0.05


def test_noise_sigma_shape_and_scale():
    rng = np.random.default_rng(8)
    from octaudio.psycho import bark_partition

    batch = rng.standard_normal((3, 4, 16, 1)) * 0.2
    partition = bark_partition(2048, 16)
    sigma = quantization_noise_sigma(batch, partition, 0.3, 96.0)
    assert sigma.shape == batch.shape
    assert np.all(sigma > 0)
    doubled = quantization_noise_sigma(2 * batch, partition, 0.3, 96.0)
    np.testing.assert_allclose(doubled, 2 * sigma, rtol=1e-9)


def toy_setup(iterations=2, noise=0.0, seed=1):
    cfg = ModelConfig(latent_dim=6, num_blocks=1, seed_blocks=2, seed_bands=4,
                      channels=(4, 3), output_channels=1)
    rng = np.random.default_rng(0)
    data = synthetic_tone_dataset(rng, 4, 2048, 8, 8)
    tcfg = TrainConfig(batch_size=2, iterations=iterations, rng_seed=seed,
                       n_critic=2, noise_scale=noise)
    return data, cfg, tcfg


def test_train_smoke_changes_parameters(tmp_path):
    data, cfg, tcfg = toy_setup(iterations=2, noise=1.0)
    result = train(data, cfg, tcfg, tmp_path / "run")
    assert (tmp_path / "run" / "losses.csv").exists()
    assert (tmp_path / "run" / "checkpoint.bin").exists()
    from octaudio.nn.model import load_checkpoint

    params, cfg2, iteration, extra = load_checkpoint(result.checkpoint_path)
    assert iteration == 2
    assert extra["sample_rate_hz"] == 2048
    fresh = init_params(discriminator_param_shapes(cfg), np.random.default_rng(0))
    # at least the critic weights moved away from any fresh init scale
    moved = any(
        not np.allclose(params[k].data, 0.0) and k.endswith(".b")
        for k in params if k.startswith("d.")
    )
    assert moved


def test_train_deterministic_outputs(tmp_path):
    data, cfg, tcfg = toy_setup(iterations=3, noise=1.0, seed=9)
    a = train(data, cfg, tcfg, tmp_path / "a")
    data2, cfg2, tcfg2 = toy_setup(iterations=3, noise=1.0, seed=9)
    b = train(data2, cfg2, tcfg2, tmp_path / "b")
    assert (tmp_path / "a" / "losses.csv").read_bytes() == \
           (tmp_path / "b" / "losses.csv").read_bytes()
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
           (tmp_path / "b" / "checkpoint.bin").read_bytes()


def test_train_rejects_empty_and_mismatched_dataset(tmp_path):
    data, cfg, tcfg = toy_setup()
    with pytest.raises(ConfigError):
        train([], cfg, tcfg, tmp_path / "x")
    bad = [MdctTensor(np.zeros((4, 8, 1)), 2048)]
    with pytest.raises(ShapeError):
        train(bad, cfg, tcfg, tmp_path / "y")


@pytest.mark.parametrize("key, value, rule", [
    ("learning_rate", 0.0, "must be > 0"),
    ("learning_rate", math.nan, "must be finite"),
    ("adam_beta1", 1.0, "must lie in [0, 1)"),
    ("adam_beta2", -0.1, "must lie in [0, 1)"),
    ("n_critic", 0, "must be >= 1"),
    ("gp_lambda", -1.0, "must be >= 0"),
    ("gp_lambda", math.inf, "must be finite"),
    ("drift_epsilon", -1.0, "must be >= 0"),
    ("batch_size", 0, "must be >= 1"),
    ("noise_scale", -1.0, "must be >= 0"),
    ("iterations", -1, "must be >= 0"),
    ("checkpoint_every", -1, "must be >= 0"),
    ("rng_seed", -1, "must be >= 0"),
    ("alpha", 0.0, "must be > 0"),
    ("db_reference", math.inf, "must be finite"),
])
def test_train_config_message_names_only_the_failing_key(key, value, rule):
    # every other key keeps its default, which is valid
    with pytest.raises(ConfigError) as info:
        TrainConfig(**{key: value})
    assert str(info.value) == f"{key} {rule}"


def test_train_config_accepts_zero_iterations():
    assert TrainConfig(iterations=0).iterations == 0


def test_freeze_blocks_keeps_block_parameters_fixed(tmp_path):
    data, cfg, _ = toy_setup()
    tcfg = TrainConfig(batch_size=2, iterations=2, rng_seed=3, n_critic=1,
                       noise_scale=0.0, freeze_blocks=(1,))
    result = train(data, cfg, tcfg, tmp_path / "frozen")
    from octaudio.nn.model import load_checkpoint

    params, _, _, _ = load_checkpoint(result.checkpoint_path)
    rng = np.random.default_rng(3)
    from octaudio.nn.model import generator_param_shapes

    fresh_g = init_params(generator_param_shapes(cfg), rng)
    fresh_d = init_params(discriminator_param_shapes(cfg), rng)
    fresh = {**fresh_g, **fresh_d}
    for name in params:
        if "block1." in name:
            np.testing.assert_array_equal(params[name].data, fresh[name].data)
    assert any(
        not np.array_equal(params[k].data, fresh[k].data)
        for k in params if "block1." not in k
    )


class RecordingRng:
    """A numpy Generator that logs each draw as (method, shape of the draw)."""

    def __init__(self, rng, log):
        self._rng = rng
        self._log = log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, np.shape(out)))
            return out
        return draw


def test_noise_applied_to_both_real_and_fake(tmp_path, monkeypatch):
    import octaudio.nn.train as train_module

    data, cfg, _ = toy_setup()
    shape = (2, *cfg.output_shape)
    default_rng = np.random.default_rng
    runs = {}
    for scale in (0.0, 1.0):
        run = runs[scale] = {"sigma": [], "generated": [], "critic": [],
                             "draws": []}

        def recorded(key, fn, pick, run=run):
            def wrapper(*args):
                out = fn(*args)
                run[key].append(np.array(pick(args, out)))
                return out
            return wrapper

        monkeypatch.setattr(train_module, "quantization_noise_sigma", recorded(
            "sigma", quantization_noise_sigma, lambda args, out: args[0]))
        monkeypatch.setattr(train_module, "generator", recorded(
            "generated", generator, lambda args, out: out.data))
        monkeypatch.setattr(train_module, "discriminator", recorded(
            "critic", discriminator, lambda args, out: args[0].data))
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed, run=run: RecordingRng(default_rng(seed),
                                                               run["draws"]))
        tcfg = TrainConfig(batch_size=2, iterations=2, rng_seed=1, n_critic=2,
                           noise_scale=scale)
        train(data, cfg, tcfg, tmp_path / str(scale))

    def iteration(noise, generator_step):
        draws = [("integers", (2,)), ("standard_normal", (2, cfg.latent_dim))]
        draws += [("standard_normal", shape)] * 2 * noise
        draws += [("uniform", (2, 1, 1, 1))]
        if generator_step:
            draws += [("standard_normal", (2, cfg.latent_dim))]
            draws += [("standard_normal", shape)] * noise
        return draws

    # per iteration: picks, z, real noise, fake noise, u; a generator
    # iteration then draws z2 and the noise of the generator's fake
    quiet, noisy = runs[0.0], runs[1.0]
    init = []
    for run, noise in ((quiet, 0), (noisy, 1)):
        loop = iteration(noise, False) + iteration(noise, True)
        assert run["draws"][-len(loop):] == loop
        init.append(run["draws"][:-len(loop)])
    assert init[0] == init[1]

    assert quiet["sigma"] == []
    real_1, fake_1, real_2, fake_2, fake_g = noisy["sigma"]
    samples = [t.amplitudes for t in data]
    for row in (*real_1, *real_2):
        assert any(np.array_equal(row, s) for s in samples)
    for batch, made in zip((fake_1, fake_2, fake_g), noisy["generated"]):
        np.testing.assert_array_equal(batch, made)
    # the critic sees D(real), D(fake), D(xhat) per critic step, then the
    # generator's D(fake), and every batch it sees is noised
    critic = noisy["critic"]
    assert len(critic) == 7
    for seen, batch in ((critic[0], real_1), (critic[1], fake_1),
                        (critic[3], real_2), (critic[4], fake_2),
                        (critic[6], fake_g)):
        assert not np.any(seen == batch)
    for i, made in zip((1, 4, 6), quiet["generated"]):
        np.testing.assert_array_equal(quiet["critic"][i], made)


def test_train_step_counts(tmp_path, monkeypatch):
    import octaudio.nn.train as train_module

    counts = {"discriminator": 0, "create_graph": 0, "noise_sigma": 0}

    def counted(key, fn, when=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            counts[key] += bool(when(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(train_module, "discriminator",
                        counted("discriminator", discriminator))
    monkeypatch.setattr(ad, "grad", counted(
        "create_graph", ad.grad,
        lambda *a, create_graph=False, **k: create_graph))
    monkeypatch.setattr(train_module, "quantization_noise_sigma",
                        counted("noise_sigma", quantization_noise_sigma))
    data, cfg, tcfg = toy_setup(iterations=2, noise=1.0)
    train(data, cfg, tcfg, tmp_path / "run")
    # critic step: D(real), D(fake), D(xhat) and one penalty gradient, with
    # noise on both batches; generator step: D(fake) with noise on the fake
    # batch only
    assert counts == {"discriminator": 7, "create_graph": 2, "noise_sigma": 5}


def test_critic_only_loss_g_is_the_critic_steps_d_fake(tmp_path, monkeypatch):
    import octaudio.nn.train as train_module

    scores = []

    def recorded(*args):
        out = discriminator(*args)
        scores.append(out.data)
        return out

    monkeypatch.setattr(train_module, "discriminator", recorded)
    data, cfg, tcfg = toy_setup(iterations=4, noise=1.0)
    train(data, cfg, tcfg, tmp_path / "run")
    with open(tmp_path / "run" / "losses.csv") as fh:
        loss_g = [float(row.split(",")[2]) for row in fh.read().splitlines()[1:]]
    # D(real), D(fake), D(xhat) per iteration, and D(fake_g) every second;
    # iterations 1 and 3 update only the critic
    assert len(scores) == 14
    assert loss_g[0] == -float(np.mean(scores[1]))
    assert loss_g[2] == -float(np.mean(scores[8]))


def test_divergence_error_carries_iteration(tmp_path):
    data, cfg, tcfg = toy_setup(iterations=1)
    data = [MdctTensor(t.amplitudes * np.nan, 2048) for t in data]
    with pytest.raises(DivergenceError) as exc:
        train(data, cfg, tcfg, tmp_path / "d")
    assert exc.value.iteration == 1
    # it failed before its first row, so it leaves no run directory
    assert not (tmp_path / "d").exists()
    (tmp_path / "e").mkdir()
    with pytest.raises(DivergenceError):
        train(data, cfg, tcfg, tmp_path / "e")
    assert list((tmp_path / "e").iterdir()) == []


# conv2d and the dense layers as they were before ad.affine: matmul, then
# add the bias

def matmul_then_add_conv2d(x, weights, bias, strides):
    batch, m, n, cin = x.shape
    kh, kw, _, cout = weights.shape
    sm, sk = strides
    if (kh, kw) == (1, 1) and (sm, sk) == (1, 1):
        flat = ad.reshape(x, (batch * m * n, cin))
        out = ad.matmul(flat, ad.reshape(weights, (cin, cout)))
        out = ad.add(out, bias)
        return ad.reshape(out, (batch, m, n, cout))
    w = _phase_kernel(weights, strides)
    th, tw = w.shape[0], w.shape[2]
    mo, no = -(-m // sm), -(-n // sk)
    before_m, before_n = _pad_before(m, kh, sm), _pad_before(n, kw, sk)
    pads = (before_m, (mo + th - 1) * sm - m - before_m,
            before_n, (no + tw - 1) * sk - n - before_n)
    patches = ad.gather(x, (th, tw), strides, pads)
    patches = ad.reshape(patches, (batch * mo * no, th * tw * sm * sk * cin))
    w = ad.permute(w, (0, 2, 1, 3, 4, 5))
    out = ad.matmul(patches, ad.reshape(w, (th * tw * sm * sk * cin, cout)))
    return ad.reshape(ad.add(out, bias), (batch, mo, no, cout))


def matmul_then_add_dense(x, weights, bias):
    return ad.add(ad.matmul(x, weights), bias)


def critic_step_bytes(cfg, d_params, real, fake):
    """The critic loss, its stats and its parameter gradients, as bytes."""
    names = sorted(d_params)
    loss_d, stats = wgan_gp_losses(
        real, fake, lambda x: discriminator(x, d_params, cfg),
        10.0, 0.001, np.random.default_rng(4))
    grads = ad.grad(loss_d, [d_params[k] for k in names])
    return loss_d.data.tobytes(), stats, [g.data.tobytes() for g in grads]


@pytest.mark.parametrize("cfg", [
    ModelConfig(latent_dim=32, num_blocks=2, seed_blocks=4, seed_bands=4,
                channels=(48, 24, 12), output_channels=1),
    ModelConfig(latent_dim=4, num_blocks=1, seed_blocks=2, seed_bands=2,
                channels=(3, 2), output_channels=2),
], ids=["example_config", "stereo"])
def test_critic_is_bitwise_the_matmul_then_add_layers(cfg, monkeypatch):
    # the critic step, gradient penalty and its double backward included,
    # gives the bytes it gave before every conv/dense layer was one affine node
    rng = np.random.default_rng(12)
    d_params = init_params(discriminator_param_shapes(cfg), rng)
    for name, p in d_params.items():
        if name.endswith(".b"):
            p.data = 0.1 * rng.standard_normal(p.shape)
    real = 0.1 * rng.standard_normal((8, *cfg.output_shape))
    fake = 0.1 * rng.standard_normal(real.shape)
    got = critic_step_bytes(cfg, d_params, real, fake)
    monkeypatch.setattr(model_module, "conv2d", matmul_then_add_conv2d)
    monkeypatch.setattr(ad, "affine", matmul_then_add_dense)
    assert critic_step_bytes(cfg, d_params, real, fake) == got


def captured_arrays(vjp):
    """The arrays a vjp closure holds, itself or through a Tensor, leaving
    out parameters, which outlive every graph."""
    for cell in vjp.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, ad.Tensor):
            if value.node is None or value.node.parents:
                yield value.data
        elif isinstance(value, np.ndarray):
            yield value


def graph_refs(root):
    """Weak references to root's array, to every recorded non-leaf node of
    its graph and to every array those nodes' vjps captured."""
    refs, seen, stack = [weakref.ref(root.data)], set(), [root.node]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.parents:
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node))
        refs.extend(weakref.ref(a) for vjp in node.vjps
                    for a in captured_arrays(vjp))
        stack.extend(node.parents)
    return refs


def test_no_graph_outlives_its_iteration(tmp_path, monkeypatch):
    import octaudio.nn.train as train_module

    graphs, alive = [], []

    def critic_loss(*args):
        # every graph of the previous iteration is gone when this one starts
        alive.append(sum(ref() is not None for refs in graphs for ref in refs))
        graphs.clear()
        loss_d, stats = wgan_gp_losses(*args)
        graphs.append(graph_refs(loss_d))
        return loss_d, stats

    def gen_loss(*args):
        # the critic's graph is gone before the generator step records its own
        alive.append(sum(ref() is not None for refs in graphs for ref in refs))
        loss_g = generator_loss(*args)
        graphs.append(graph_refs(loss_g))
        return loss_g

    monkeypatch.setattr(train_module, "wgan_gp_losses", critic_loss)
    monkeypatch.setattr(train_module, "generator_loss", gen_loss)
    data, cfg, tcfg = toy_setup(iterations=5, noise=1.0)
    train(data, cfg, tcfg, tmp_path / "run")
    # iterations 2 and 4 also took a generator step; the last critic graph
    # was walked too
    assert alive == [0] * 7
    assert len(graphs) == 1 and len(graphs[0]) > 100


def test_training_peak_holds_one_critic_graph(tmp_path):
    # 6 iterations of the example config peak at about 26 MB, with one
    # critic graph that keeps only what its vjps read; keeping every
    # intermediate array peaked at 64 MB, and holding the previous
    # iteration's graphs as well at 113 MB
    root = pathlib.Path(__file__).resolve().parent.parent
    app = load_config(root / "examples_config.ini")
    rng = np.random.default_rng(app.train.rng_seed)
    dataset = synthetic_tone_dataset(rng, app.data_count, app.sample_rate_hz,
                                     *app.model.output_shape)
    tcfg = dataclasses.replace(app.train, iterations=6)
    tracemalloc.start()
    try:
        train(dataset, app.model, tcfg, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak / 1e6

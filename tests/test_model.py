import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from octaudio.audio_io import MAX_SAMPLE_RATE_HZ
from octaudio.errors import ConfigError, ParseError, ShapeError
from octaudio.nn import autodiff as ad
from octaudio.nn import model
from octaudio.nn.layers import conv2d, leaky_relu
from octaudio.nn.model import (
    ModelConfig,
    count_params,
    default_channels,
    discriminator,
    discriminator_block,
    discriminator_param_shapes,
    generator,
    generator_block,
    generator_param_shapes,
    init_params,
    load_checkpoint,
    save_checkpoint,
    shape_table,
)


def tiny_cfg(**kwargs):
    defaults = dict(latent_dim=8, num_blocks=2, seed_blocks=2, seed_bands=2,
                    channels=(6, 4, 3), output_channels=1)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def test_output_shape_formula():
    cfg = tiny_cfg()
    assert cfg.output_shape == (2 * 4 ** 2, 2 * 2 ** 2, 1)


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5, 6])
def test_shape_algebra_per_depth(blocks):
    cfg = ModelConfig(latent_dim=4, num_blocks=blocks, seed_blocks=4,
                      seed_bands=2, channels=(2,) * (blocks + 1),
                      output_channels=2)
    m, n = cfg.block_shape(blocks)
    assert m == 4 * 4 ** blocks
    assert n == 2 * 2 ** blocks


def test_published_output_shapes():
    big = ModelConfig(latent_dim=512, num_blocks=6, seed_blocks=4, seed_bands=2)
    assert big.output_shape == (16384, 128, 2)
    small = ModelConfig(latent_dim=512, num_blocks=5, seed_blocks=1, seed_bands=4)
    assert small.output_shape == (1024, 128, 2)


def test_channel_cap_enforced():
    with pytest.raises(ConfigError):
        ModelConfig(num_blocks=1, channels=(513, 4))
    assert max(default_channels(8)) == 512


def test_output_grid_bounded_before_schedule_is_built(monkeypatch):
    import octaudio.nn.model as model

    def no_schedule(num_blocks, *args, **kwargs):
        raise AssertionError(f"schedule built for {num_blocks} blocks")

    monkeypatch.setattr(model, "default_channels", no_schedule)
    for blocks in (10 ** 9, 20000, 11):
        with pytest.raises(ConfigError, match="output grid"):
            ModelConfig(num_blocks=blocks)
    with pytest.raises(ConfigError, match="output grid"):
        ModelConfig(num_blocks=10, seed_blocks=1, seed_bands=2, output_channels=2,
                    channels=(1,) * 11)
    # 2**31 entries exactly is still allowed, as is the published model
    assert ModelConfig(num_blocks=10, seed_blocks=1, seed_bands=2, output_channels=1,
                       channels=(1,) * 11).output_shape == (4 ** 10, 2 ** 11, 1)
    assert ModelConfig(channels=default_channels(6)).output_shape == (16384, 128, 2)


def test_channel_schedule_length_checked():
    with pytest.raises(ConfigError):
        tiny_cfg(channels=(4, 3))


def test_generator_block_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    params = init_params(generator_param_shapes(cfg), rng)
    x = ad.constant(rng.standard_normal((3, 2, 2, 6)))
    out = generator_block(x, params, "g.block1")
    assert out.shape == (3, 8, 4, 4)


def test_discriminator_block_shape_roundtrip():
    # discriminator block i maps the generator block i output shape back to
    # the generator block i input shape
    cfg = tiny_cfg()
    rng = np.random.default_rng(1)
    g_params = init_params(generator_param_shapes(cfg), rng)
    d_params = init_params(discriminator_param_shapes(cfg), rng)
    x = ad.constant(rng.standard_normal((2, 8, 4, 4)))   # g.block2 input
    up = generator_block(x, g_params, "g.block2")
    assert up.shape == (2, 32, 8, 3)
    down = discriminator_block(ad.constant(up.data), d_params, "d.block2")
    assert down.shape == x.shape


def test_generator_output_shape_and_linearity_of_head():
    cfg = tiny_cfg()
    rng = np.random.default_rng(2)
    params = init_params(generator_param_shapes(cfg), rng)
    z = ad.constant(rng.standard_normal((4, 8)))
    out = generator(z, params, cfg)
    assert out.shape == (4, *cfg.output_shape)


def test_generator_zero_weights_zero_output():
    cfg = tiny_cfg()
    shapes = generator_param_shapes(cfg)
    params = {name: ad.parameter(np.zeros(shape)) for name, shape in shapes.items()}
    z = ad.constant(np.zeros((2, 8)))
    out = generator(z, params, cfg)
    np.testing.assert_array_equal(out.data, 0.0)


def whole_array_generator(z, params, cfg):
    """generator before its last block ran in tiles: every block on the
    whole array."""
    h = ad.affine(z, params["g.seed.W"], params["g.seed.b"])
    h = ad.reshape(h, (z.shape[0], cfg.seed_blocks, cfg.seed_bands, cfg.channels[0]))
    h = leaky_relu(h)
    for i in range(1, cfg.num_blocks + 1):
        h = generator_block(h, params, f"g.block{i}")
    return conv2d(h, params["g.out.W"], params["g.out.b"], (1, 1))


def random_generator(cfg, seed, batch=1):
    """Generator params with nonzero biases, and a (batch, latent_dim) latent."""
    rng = np.random.default_rng(seed)
    params = init_params(generator_param_shapes(cfg), rng)
    for name, p in params.items():
        if name.endswith(".b"):
            p.data[:] = 0.1 * rng.standard_normal(p.shape)
    return params, ad.constant(rng.standard_normal((batch, cfg.latent_dim)))


def assert_tiled_generator_is_whole_array(output_channels):
    """The benchmark's sampling model (256 input rows in its last block, 8
    tiles): sampled in tiles, bit for bit the whole-array generator."""
    cfg = ModelConfig(latent_dim=128, num_blocks=5, seed_blocks=1, seed_bands=4,
                      channels=(128, 128, 64, 64, 32, 32),
                      output_channels=output_channels)
    assert cfg.block_shape(cfg.num_blocks - 1)[0] > model.TILE_ROWS
    params, z = random_generator(cfg, output_channels)
    with ad.no_grad():
        tiled = generator(z, params, cfg).data
        whole = whole_array_generator(z, params, cfg).data
    assert tiled.tobytes() == whole.tobytes()


def test_tiled_generator_is_bitwise_the_whole_array():
    # dgemm rounds by call shape, so the bytes hold at one BLAS thread only;
    # the kernel is the caller's (CI also sets OPENBLAS_CORETYPE)
    tests = pathlib.Path(__file__).resolve().parent
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from test_model import assert_tiled_generator_is_whole_array as check\n"
            "check(2); check(1)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(tests.parent / "src"))
    result = subprocess.run([sys.executable, "-c", code, str(tests)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.deep
@settings(deadline=None)
@given(tile=st.integers(1, 7), blocks=st.integers(1, 4),
       seed_blocks=st.integers(1, 9), output_channels=st.integers(1, 2),
       batch=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
@example(tile=7, blocks=1, seed_blocks=8, output_channels=2, batch=1, seed=0)
@example(tile=3, blocks=2, seed_blocks=2, output_channels=1, batch=2, seed=1)
@example(tile=5, blocks=4, seed_blocks=1, output_channels=2, batch=1, seed=2)
def test_tiled_generator_matches_whole_array(tile, blocks, seed_blocks,
                                             output_channels, batch, seed):
    # the examples: a one-row last tile, a partial (2-row) last tile and
    # 4 blocks; the property requires at least two tiles
    rows = seed_blocks * 4 ** (blocks - 1)
    assume(tile < rows <= 64)
    cfg = ModelConfig(latent_dim=4, num_blocks=blocks, seed_blocks=seed_blocks,
                      seed_bands=2, channels=(4, 3, 3, 2, 2)[:blocks + 1],
                      output_channels=output_channels)
    params, z = random_generator(cfg, seed, batch)
    with pytest.MonkeyPatch.context() as mp, ad.no_grad():
        mp.setattr(model, "TILE_ROWS", tile)
        tiled = generator(z, params, cfg)
        whole = whole_array_generator(z, params, cfg).data
    assert tiled.shape == (batch, *cfg.output_shape)
    np.testing.assert_allclose(tiled.data, whole, rtol=1e-12,
                               atol=1e-12 * np.abs(whole).max())


def test_recorded_generator_is_one_tile():
    # a recorded graph would keep every tile alive, so training sees the
    # whole array and its gradients
    cfg = tiny_cfg(seed_blocks=9)
    params, z = random_generator(cfg, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "TILE_ROWS", 2)
        out = generator(z, params, cfg)
    assert out.requires_grad
    whole = whole_array_generator(z, params, cfg)
    assert out.data.tobytes() == whole.data.tobytes()


def test_discriminator_zero_input_zero_biases_zero_score():
    cfg = tiny_cfg()
    shapes = discriminator_param_shapes(cfg)
    rng = np.random.default_rng(3)
    params = init_params(shapes, rng)
    x = ad.constant(np.zeros((2, *cfg.output_shape)))
    scores = discriminator(x, params, cfg)
    np.testing.assert_allclose(scores.data, 0.0, atol=1e-12)


def test_discriminator_of_generator_runs():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    g_params = init_params(generator_param_shapes(cfg), rng)
    d_params = init_params(discriminator_param_shapes(cfg), rng)
    z = ad.constant(rng.standard_normal((5, 8)))
    scores = discriminator(generator(z, g_params, cfg), d_params, cfg)
    assert scores.shape == (5,)
    assert np.all(np.isfinite(scores.data))


def test_discriminator_rejects_wrong_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(5)
    params = init_params(discriminator_param_shapes(cfg), rng)
    with pytest.raises(ShapeError):
        discriminator(ad.constant(np.zeros((2, 8, 8, 1))), params, cfg)


def test_generator_rejects_wrong_latent():
    cfg = tiny_cfg()
    rng = np.random.default_rng(6)
    params = init_params(generator_param_shapes(cfg), rng)
    with pytest.raises(ShapeError):
        generator(ad.constant(np.zeros((2, 9))), params, cfg)


def test_shape_table_published_configs():
    table = shape_table(ModelConfig(num_blocks=6, seed_blocks=4, seed_bands=2))
    assert table["rows"][-1] == ("output", 16384, 128, 2)
    table = shape_table(
        ModelConfig(num_blocks=5, seed_blocks=1, seed_bands=4)
    )
    assert table["rows"][-1] == ("output", 1024, 128, 2)
    zero = shape_table(
        ModelConfig(num_blocks=0, seed_blocks=4, seed_bands=2, channels=(8,))
    )
    assert zero["rows"][0] == ("seed", 4, 2, 8)


def test_param_count_matches_init():
    cfg = tiny_cfg()
    shapes = generator_param_shapes(cfg)
    params = init_params(shapes, np.random.default_rng(0))
    total = sum(p.size for p in params.values())
    assert count_params(shapes) == total


def test_init_scaling_and_zero_bias():
    cfg = tiny_cfg()
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(7))
    np.testing.assert_array_equal(params["g.seed.b"].data, 0.0)
    w = params["g.block1.time.W"]
    fan_in = 8 * 3 * 6
    assert np.std(w.data) == pytest.approx(1 / np.sqrt(fan_in), rel=0.3)


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg()
    rng = np.random.default_rng(8)
    params = init_params(generator_param_shapes(cfg), rng)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, cfg, iteration=42,
                    extra={"sample_rate_hz": 2048})
    loaded, cfg2, iteration, extra = load_checkpoint(path)
    assert iteration == 42
    assert extra == {"sample_rate_hz": 2048}
    assert cfg2 == cfg
    assert sorted(loaded) == sorted(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)


def test_checkpoint_of_numpy_integer_sizes(tmp_path):
    # numpy sizes were kept as numpy ints, and json.dumps failed on them
    cfg = ModelConfig(latent_dim=np.int64(6), num_blocks=np.int64(1),
                      seed_blocks=np.int32(2), seed_bands=np.int64(4),
                      channels=(4, 3), output_channels=np.int64(1))
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(8))
    save_checkpoint(tmp_path / "ck.bin", params, cfg)
    _, loaded, _, _ = load_checkpoint(tmp_path / "ck.bin")
    assert loaded == cfg
    assert all(type(v) is int for v in (cfg.latent_dim, cfg.num_blocks,
                                        cfg.seed_blocks, cfg.seed_bands,
                                        cfg.output_channels))


@pytest.mark.parametrize("rate", [1e30, [1], "abc", 0, -5, 2048.0, True,
                                  MAX_SAMPLE_RATE_HZ + 1])
def test_checkpoint_bad_sample_rate_is_parse_error(tmp_path, rate):
    cfg = tiny_cfg()
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(8))
    save_checkpoint(tmp_path / "ck.bin", params, cfg,
                    extra={"sample_rate_hz": rate})
    with pytest.raises(ParseError, match="sample_rate_hz"):
        load_checkpoint(tmp_path / "ck.bin")


@pytest.mark.parametrize("iteration", [True, False, -1, 1.5, "3"])
def test_checkpoint_bad_iteration_is_parse_error(tmp_path, iteration):
    cfg = tiny_cfg()
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(8))
    save_checkpoint(tmp_path / "ck.bin", params, cfg, iteration=iteration)
    with pytest.raises(ParseError, match="iteration"):
        load_checkpoint(tmp_path / "ck.bin")


def test_checkpoint_sample_rate_limits_load(tmp_path):
    cfg = tiny_cfg()
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(8))
    for extra in ({}, {"sample_rate_hz": 1},
                  {"sample_rate_hz": MAX_SAMPLE_RATE_HZ}):
        save_checkpoint(tmp_path / "ck.bin", params, cfg, extra=extra)
        assert load_checkpoint(tmp_path / "ck.bin")[3] == extra


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = tiny_cfg()
    for run in ("a", "b"):
        params = init_params(generator_param_shapes(cfg), np.random.default_rng(9))
        save_checkpoint(tmp_path / f"{run}.bin", params, cfg, iteration=1)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX")
    with pytest.raises(ParseError):
        load_checkpoint(path)

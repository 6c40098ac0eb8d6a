"""Every file parser turns any input bytes into a result or a toolkit error.

Each parser gets arbitrary bytes and corrupted copies of a valid file of
its own format (bytes overwritten, inserted or cut off), so that the
fuzzing reaches past the magic numbers into the body of each format.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaudio.audio_io import AudioBuffer, read_wav, write_wav
from octaudio.config import load_config
from octaudio.errors import ConfigError, OctaudioError, ParseError
from octaudio.mdct import MdctTensor, load_tensor, save_tensor
from octaudio.nn import autodiff as ad
from octaudio.nn.model import (
    ModelConfig,
    generator_param_shapes,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

pytestmark = pytest.mark.deep

CONFIG_TEXT = b"""
[audio]
sample_rate_hz = 2048

[model]
latent_dim = 6
num_blocks = 1
seed_blocks = 2
seed_bands = 4
channels = 4, 3
output_channels = 1

[train]
iterations = 4
freeze_blocks = 1

[data]
source = tones
count = 4
"""


def toy_model():
    return ModelConfig(latent_dim=2, num_blocks=1, seed_blocks=1, seed_bands=2,
                       channels=(2, 1), output_channels=1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_files(fuzz_dir):
    """One small valid file per parser, as bytes."""
    wav = fuzz_dir / "valid.wav"
    write_wav(AudioBuffer(np.linspace(-0.5, 0.5, 12).reshape(6, 2), 2048), wav)
    tensor = fuzz_dir / "valid.mdct"
    save_tensor(MdctTensor(np.arange(16.0).reshape(2, 4, 2), 2048), tensor)
    checkpoint = fuzz_dir / "valid.ckpt"
    cfg = toy_model()
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(0))
    save_checkpoint(checkpoint, params, cfg, extra={"sample_rate_hz": 2048})
    return {
        read_wav: wav.read_bytes(),
        load_tensor: tensor.read_bytes(),
        load_checkpoint: checkpoint.read_bytes(),
        load_config: CONFIG_TEXT,
    }


@st.composite
def corrupted(draw, valid):
    """valid with a few byte runs overwritten or inserted, maybe cut short."""
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob)))
        junk = draw(st.binary(min_size=1, max_size=8))
        width = draw(st.sampled_from([0, len(junk)]))
        blob[at:at + width] = junk
    cut = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    return bytes(blob[:cut])


PARSERS = [read_wav, load_tensor, load_checkpoint, load_config]


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@settings(deadline=None)    # examples: the profile's (tests/conftest.py)
@given(data=st.data())
def test_parser_raises_only_toolkit_errors(fuzz_dir, valid_files, parse, data):
    blob = data.draw(st.one_of(st.binary(max_size=256),
                               corrupted(valid_files[parse])))
    path = fuzz_dir / "input"
    path.write_bytes(blob)
    try:
        parse(path)
    except OctaudioError:
        pass


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
def test_valid_fuzz_seed_files_parse(fuzz_dir, valid_files, parse):
    path = fuzz_dir / "input"
    path.write_bytes(valid_files[parse])
    parse(path)


def test_checkpoint_tensor_with_too_many_axes_is_parse_error(tmp_path):
    # found by the fuzzer: a rank byte above numpy's limit escaped from
    # reshape as ValueError
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"x": ad.parameter(np.zeros(1))}, toy_model())
    one_axis = b"\x01\x00x\x01" + struct.pack("<I", 1)
    many_axes = b"\x01\x00x\x41" + struct.pack("<I", 1) * 65
    blob = path.read_bytes()
    assert blob.count(one_axis) == 1
    path.write_bytes(blob.replace(one_axis, many_axes))
    with pytest.raises(ParseError, match="tensor x"):
        load_checkpoint(path)


def test_checkpoint_float_model_size_is_parse_error(tmp_path):
    # a JSON float passed ModelConfig, then range() raised TypeError
    cfg = toy_model()
    params = init_params(generator_param_shapes(cfg), np.random.default_rng(0))
    cfg.num_blocks = 1.0
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, params, cfg)
    with pytest.raises(ParseError, match="integers"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", ["% 4, 3", "%(missing)s", "%(channels)s"])
def test_config_bad_interpolation_is_config_error(tmp_path, value):
    # found by the fuzzer: "channels =% 4, 3" escaped from configparser as
    # InterpolationSyntaxError
    path = tmp_path / "c.ini"
    path.write_text(f"[model]\nchannels = {value}\n")
    with pytest.raises(ConfigError, match=r"\[model\]"):
        load_config(path)

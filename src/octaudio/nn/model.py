"""Generator/discriminator assembly with octave-structured blocks.

Each generator block quadruples the block (time) axis with a stride-(4,1)
transposed convolution, then synthesizes a new top octave from the highest
octave of its input via a stride-(1,2) transposed convolution, balances it
with a linear 1x1 convolution and concatenates: (M, N) -> (4M, 2N). The
discriminator mirrors this: the top octave is analyzed down to half its
width, balanced, summed onto the lower octaves, and time is downsampled.
No batch normalization anywhere; a minibatch-stddev channel is appended just
before the deepest discriminator block.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from ..audio_io import MAX_SAMPLE_RATE_HZ
from ..errors import ConfigError, ParseError, ShapeError
from . import autodiff as ad
from .layers import (
    concat_bands,
    conv2d,
    dense,
    leaky_relu,
    minibatch_stddev,
    slice_bands,
    transposed_conv2d,
)

CHECKPOINT_MAGIC = b"MP3N"
CHECKPOINT_VERSION = 1
CHANNEL_CAP = 512
BASE_CHANNELS = 64         # shallowest default width
GRID_CAP = 2 ** 31         # output entries: blocks x bands x channels

KERNEL_TIME = (8, 3)       # stride (4, 1)
KERNEL_OCTAVE = (1, 4)     # stride (1, 2)


def default_channels(num_blocks):
    """Deepest-first channel schedule, halving per block, capped."""
    return tuple(
        min(CHANNEL_CAP, BASE_CHANNELS * 2 ** (num_blocks - depth))
        for depth in range(num_blocks + 1)
    )


@dataclass
class ModelConfig:
    """Architecture shape schedule.

    channels[d] is the width at depth d: channels[0] at the seed,
    channels[num_blocks] at the shallowest block output.
    """

    latent_dim: int = 512
    num_blocks: int = 6
    seed_blocks: int = 4
    seed_bands: int = 2
    channels: tuple = None
    output_channels: int = 2

    def __post_init__(self):
        sizes = (self.latent_dim, self.num_blocks, self.seed_blocks,
                 self.seed_bands, self.output_channels)
        if not all(isinstance(v, (int, np.integer)) for v in sizes):
            raise ConfigError("latent_dim, num_blocks, seed shape and "
                              "output_channels must be integers")
        # plain ints, so that numpy sizes serialize to checkpoint JSON
        (self.latent_dim, self.num_blocks, self.seed_blocks, self.seed_bands,
         self.output_channels) = (int(v) for v in sizes)
        if self.latent_dim < 1 or self.seed_blocks < 1 or self.seed_bands < 1:
            raise ConfigError("latent_dim and seed shape must be positive")
        if self.num_blocks < 0:
            raise ConfigError("num_blocks must be non-negative")
        if self.output_channels < 1:
            raise ConfigError("output_channels must be positive")
        # each block multiplies the grid by 8, so past 10 blocks (8**11 >
        # GRID_CAP) it is too large whatever the seed: reject before any power
        if self.num_blocks > 10 or math.prod(self.output_shape) > GRID_CAP:
            raise ConfigError(
                f"a {self.num_blocks}-block model's output grid "
                f"(blocks x bands x channels) exceeds {GRID_CAP} entries"
            )
        if self.channels is None:
            self.channels = default_channels(self.num_blocks)
        self.channels = tuple(int(c) for c in self.channels)
        if self.num_blocks > 0 and self.seed_bands % 2:
            raise ConfigError("seed_bands must be even so the top octave splits")
        if len(self.channels) != self.num_blocks + 1:
            raise ConfigError(
                f"channels needs {self.num_blocks + 1} entries, got {len(self.channels)}"
            )
        if any(c < 1 for c in self.channels):
            raise ConfigError("channel counts must be positive")
        if any(c > CHANNEL_CAP for c in self.channels):
            raise ConfigError(f"channel counts are capped at {CHANNEL_CAP}")

    def block_shape(self, depth):
        """(blocks, bands) after `depth` generator blocks."""
        return (
            self.seed_blocks * 4 ** depth,
            self.seed_bands * 2 ** depth,
        )

    @property
    def output_shape(self):
        m, n = self.block_shape(self.num_blocks)
        return (m, n, self.output_channels)


# ---------------------------------------------------------------------------
# parameters

def generator_param_shapes(cfg):
    shapes = {
        "g.seed.W": (cfg.latent_dim, cfg.seed_blocks * cfg.seed_bands * cfg.channels[0]),
        "g.seed.b": (cfg.seed_blocks * cfg.seed_bands * cfg.channels[0],),
    }
    for i in range(1, cfg.num_blocks + 1):
        cin, cout = cfg.channels[i - 1], cfg.channels[i]
        shapes[f"g.block{i}.time.W"] = (*KERNEL_TIME, cin, cout)
        shapes[f"g.block{i}.time.b"] = (cout,)
        shapes[f"g.block{i}.octave.W"] = (*KERNEL_OCTAVE, cout, cout)
        shapes[f"g.block{i}.octave.b"] = (cout,)
        shapes[f"g.block{i}.balance.W"] = (1, 1, cout, cout)
        shapes[f"g.block{i}.balance.b"] = (cout,)
    shapes["g.out.W"] = (1, 1, cfg.channels[cfg.num_blocks], cfg.output_channels)
    shapes["g.out.b"] = (cfg.output_channels,)
    return shapes


def discriminator_param_shapes(cfg):
    shapes = {
        "d.in.W": (1, 1, cfg.output_channels, cfg.channels[cfg.num_blocks]),
        "d.in.b": (cfg.channels[cfg.num_blocks],),
    }
    for i in range(cfg.num_blocks, 0, -1):
        cin = cfg.channels[i] + (1 if i == 1 else 0)   # stddev channel
        cout = cfg.channels[i - 1]
        shapes[f"d.block{i}.octave.W"] = (*KERNEL_OCTAVE, cin, cin)
        shapes[f"d.block{i}.octave.b"] = (cin,)
        shapes[f"d.block{i}.balance.W"] = (1, 1, cin, cin)
        shapes[f"d.block{i}.balance.b"] = (cin,)
        shapes[f"d.block{i}.time.W"] = (*KERNEL_TIME, cin, cout)
        shapes[f"d.block{i}.time.b"] = (cout,)
    shapes["d.out.W"] = (cfg.seed_blocks * cfg.seed_bands * cfg.channels[0], 1)
    shapes["d.out.b"] = (1,)
    return shapes


def init_params(shapes, rng):
    """Gaussian weights scaled by 1/sqrt(fan_in); zero biases."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            params[name] = ad.parameter(np.zeros(shape))
        else:
            fan_in = int(np.prod(shape[:-1]))
            params[name] = ad.parameter(
                rng.standard_normal(shape) / np.sqrt(fan_in)
            )
    return params


def count_params(shapes):
    """Total parameter count, exact in Python ints (np.prod wraps in int64)."""
    return sum(math.prod(s) for s in shapes.values())


# ---------------------------------------------------------------------------
# forward passes

def generator_block(x, params, prefix):
    """(B, M, N, Cin) -> (B, 4M, 2N, Cout)."""
    h = transposed_conv2d(
        x, params[f"{prefix}.time.W"], params[f"{prefix}.time.b"], (4, 1)
    )
    h = leaky_relu(h)
    bands = h.shape[2]
    top = slice_bands(h, bands // 2, bands)
    octave = transposed_conv2d(
        top, params[f"{prefix}.octave.W"], params[f"{prefix}.octave.b"], (1, 2)
    )
    octave = leaky_relu(octave)
    octave = conv2d(
        octave, params[f"{prefix}.balance.W"], params[f"{prefix}.balance.b"], (1, 1)
    )
    return concat_bands(h, octave)


def discriminator_block(x, params, prefix):
    """(B, 4M, 2N, Cin) -> (B, M, N, Cout)."""
    bands = x.shape[2]
    if bands % 4:
        raise ShapeError(f"band count {bands} must be divisible by 4")
    if x.shape[1] % 4:
        raise ShapeError(f"block count {x.shape[1]} must be divisible by 4")
    quarter = bands // 4
    low_keep = slice_bands(x, 0, quarter)
    low_top = slice_bands(x, quarter, 2 * quarter)
    upper = slice_bands(x, 2 * quarter, bands)
    analyzed = conv2d(
        upper, params[f"{prefix}.octave.W"], params[f"{prefix}.octave.b"], (1, 2)
    )
    analyzed = leaky_relu(analyzed)
    balanced = conv2d(
        analyzed, params[f"{prefix}.balance.W"], params[f"{prefix}.balance.b"], (1, 1)
    )
    merged = concat_bands(low_keep, ad.add(low_top, balanced))
    out = conv2d(
        merged, params[f"{prefix}.time.W"], params[f"{prefix}.time.b"], (4, 1)
    )
    return leaky_relu(out)


def generator(z, params, cfg):
    """Latent (B, latent_dim) -> linear amplitudes (B, M, N, output_channels)."""
    if z.shape[1] != cfg.latent_dim:
        raise ShapeError(f"latent dim {z.shape[1]} != {cfg.latent_dim}")
    h = dense(z, params["g.seed.W"], params["g.seed.b"])
    h = ad.reshape(h, (z.shape[0], cfg.seed_blocks, cfg.seed_bands, cfg.channels[0]))
    h = leaky_relu(h)
    for i in range(1, cfg.num_blocks + 1):
        h = generator_block(h, params, f"g.block{i}")
    return conv2d(h, params["g.out.W"], params["g.out.b"], (1, 1))


def discriminator(x, params, cfg):
    """Amplitudes (B, M, N, output_channels) -> (B,) scores."""
    expected = cfg.output_shape
    if tuple(x.shape[1:]) != expected:
        raise ShapeError(f"input shape {x.shape[1:]} != {expected}")
    h = conv2d(x, params["d.in.W"], params["d.in.b"], (1, 1))
    h = leaky_relu(h)
    for i in range(cfg.num_blocks, 1, -1):
        h = discriminator_block(h, params, f"d.block{i}")
    if cfg.num_blocks >= 1:
        h = minibatch_stddev(h)
        h = discriminator_block(h, params, "d.block1")
    batch = x.shape[0]
    flat = ad.reshape(h, (batch, cfg.seed_blocks * cfg.seed_bands * cfg.channels[0]))
    score = dense(flat, params["d.out.W"], params["d.out.b"])
    return ad.reshape(score, (batch,))


def shape_table(cfg):
    """Per-depth activation shapes plus parameter totals."""
    rows = [("seed", cfg.seed_blocks, cfg.seed_bands, cfg.channels[0])]
    for depth in range(1, cfg.num_blocks + 1):
        m, n = cfg.block_shape(depth)
        rows.append((f"block {depth}", m, n, cfg.channels[depth]))
    m, n, c = cfg.output_shape
    rows.append(("output", m, n, c))
    return {
        "rows": rows,
        "generator_params": count_params(generator_param_shapes(cfg)),
        "discriminator_params": count_params(discriminator_param_shapes(cfg)),
    }


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params, cfg, iteration=0, extra=None):
    """Binary checkpoint: magic, version, config echo, named float64 tensors."""
    meta = json.dumps(
        {"model": asdict(cfg), "iteration": iteration, "extra": extra or {}},
        sort_keys=True,
    ).encode("utf-8")
    names = sorted(params)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            data = np.ascontiguousarray(params[name].data, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())


def load_checkpoint(path):
    """Returns (params dict of Tensors, ModelConfig, iteration, extra dict).

    Every read is bounds-checked; a truncated or malformed file, metadata
    that is not a model description, non-finite weights, or tensors that do
    not match the generator of that model raise ParseError.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint file")
    pos = 4

    def take(count):
        nonlocal pos
        if count > len(blob) - pos:
            raise ParseError(
                f"{path}: truncated checkpoint: needs {count} bytes at offset "
                f"{pos}, {len(blob) - pos} left"
            )
        pos += count
        return blob[pos - count:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    version, meta_len = unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(str(take(meta_len), "utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: checkpoint metadata is not JSON: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("model"), dict):
        raise ParseError(f"{path}: checkpoint metadata has no model entry")
    extra = meta.get("extra", {})
    iteration = meta.get("iteration", 0)
    if not isinstance(extra, dict) or type(iteration) is not int or iteration < 0:
        raise ParseError(f"{path}: checkpoint iteration or extra is malformed")
    rate = extra.get("sample_rate_hz", 1)
    if type(rate) is not int or not 1 <= rate <= MAX_SAMPLE_RATE_HZ:
        raise ParseError(f"{path}: checkpoint sample_rate_hz {rate!r} is not an "
                         f"integer in 1..{MAX_SAMPLE_RATE_HZ}")
    try:
        model = dict(meta["model"], channels=tuple(meta["model"]["channels"]))
        cfg = ModelConfig(**model)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ParseError(f"{path}: checkpoint model is invalid: {exc}") from exc

    (count,) = unpack("<I")
    params = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: bad tensor name: {exc}") from exc
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        if not np.all(np.isfinite(data)):
            raise ParseError(f"{path}: tensor {name} holds non-finite values")
        try:
            data = data.reshape(shape)
        except ValueError as exc:      # more axes than numpy supports
            raise ParseError(f"{path}: tensor {name}: {exc}") from exc
        params[name] = ad.parameter(data)
    if pos != len(blob):
        raise ParseError(f"{path}: {len(blob) - pos} trailing bytes after tensors")
    for name, shape in generator_param_shapes(cfg).items():
        if name not in params or params[name].shape != shape:
            raise ParseError(f"{path}: tensor {name} missing or not {shape}")
    return params, cfg, iteration, extra

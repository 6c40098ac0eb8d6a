"""Plain-text experiment configuration.

Files use `key = value` pairs under [section] headers (INI style):

    [audio]
    sample_rate_hz = 22016
    alpha = 0.3           ; masking exponent of the noise layer
    db_reference = 96.0   ; dB SPL of a full-scale amplitude

    [model]
    latent_dim = 512
    num_blocks = 6
    seed_blocks = 4
    seed_bands = 2
    channels = 512, 512, 512, 512, 256, 128, 64
    output_channels = 2

    [train]
    learning_rate = 0.0001
    beta1 = 0.5
    beta2 = 0.9
    n_critic = 2
    gp_lambda = 10.0
    drift_epsilon = 0.001
    batch_size = 8
    noise_scale = 1.0
    seed = 0
    iterations = 1000
    checkpoint_every = 0
    freeze_blocks =       ; e.g. 1, 2 to freeze the two deepest blocks

    [data]
    source = tones        ; or: wavs
    count = 64            ; tones: corpus size
    path = ./audio        ; wavs: directory of .wav files

The keys are the fields of ModelConfig, TrainConfig and AppConfig (see
_section_keys). Unknown keys are rejected so typos fail fast. [audio] alpha
and db_reference are defaults for the [train] noise layer. All randomness
flows from [train] seed.
"""

import configparser
from dataclasses import dataclass, fields

from .audio_io import MAX_SAMPLE_RATE_HZ
from .errors import ConfigError
from .nn.model import ModelConfig
from .nn.train import TrainConfig


def int_list(text):
    """Comma-separated integers, e.g. "512, 256,128", as a tuple; blank text
    is (). An empty item, as in "4,,2" or "4,", is a ValueError."""
    if not text.strip():
        return ()
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty item in {text!r}")
    return tuple(int(part) for part in parts)


# [train]'s names for three of TrainConfig's fields
_RENAMED = {"beta1": "adam_beta1", "beta2": "adam_beta2", "seed": "rng_seed"}
_NOISE_FIELDS = ("alpha", "db_reference")     # TrainConfig's, set in [audio]


@dataclass
class AppConfig:
    sample_rate_hz: int = 22016
    model: ModelConfig = None
    train: TrainConfig = None
    data_source: str = "tones"
    data_count: int = 64
    data_path: str = ""

    def __post_init__(self):
        if not 1 <= self.sample_rate_hz <= MAX_SAMPLE_RATE_HZ:
            raise ConfigError(
                f"sample_rate_hz must lie in 1..{MAX_SAMPLE_RATE_HZ}")
        if self.data_source not in ("tones", "wavs"):
            raise ConfigError(f"unknown data source {self.data_source!r}")
        if self.data_source == "wavs" and not self.data_path:
            raise ConfigError("[data] source = wavs needs a path")
        if self.data_count < 1:
            raise ConfigError("[data] count must be >= 1")
        bands = self.model.output_shape[1]     # the MDCT's band count
        if bands < 8 or bands & (bands - 1):
            raise ConfigError(f"the model's {bands} output bands are not a "
                              "power of two >= 8")


def _section_keys():
    """Each section's {file key: converter}, from the dataclasses' fields: a
    tuple field parses with int_list, any other with its annotated type."""
    model, train, app = (
        {f.name: int_list if f.type is tuple else f.type for f in fields(cls)}
        for cls in (ModelConfig, TrainConfig, AppConfig))
    field_keys = {field: key for key, field in _RENAMED.items()}
    return {
        "audio": {"sample_rate_hz": app["sample_rate_hz"],
                  **{name: train.pop(name) for name in _NOISE_FIELDS}},
        "model": model,
        "train": {field_keys.get(name, name): kind
                  for name, kind in train.items()},
        "data": {name[len("data_"):]: kind for name, kind in app.items()
                 if name.startswith("data_")},
    }


_KEYS = _section_keys()


def _section(parser, name, known):
    if not parser.has_section(name):
        return {}
    try:
        items = parser.items(name)
    except configparser.Error as exc:     # e.g. a stray '%' (interpolation)
        raise ConfigError(f"[{name}]: {exc}") from exc
    values = {}
    for key, raw in items:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            values[key] = known[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from exc
    return values


def load_config(path):
    """Parse an experiment file into an AppConfig; ConfigError on problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    audio, model_raw, train_raw, data = (
        _section(parser, name, keys) for name, keys in _KEYS.items())

    # each section's keys are fields, so no keyword is unexpected
    model_cfg = ModelConfig(**model_raw)
    train_kwargs = {_RENAMED.get(k, k): v for k, v in train_raw.items()}
    for key in _NOISE_FIELDS:
        if key in audio:
            train_kwargs[key] = audio.pop(key)
    try:
        train_cfg = TrainConfig(**train_kwargs)
    except ConfigError as exc:
        message = str(exc)     # names TrainConfig's fields: name the file's keys
        for key, field in _RENAMED.items():
            message = message.replace(field, key)
        raise ConfigError(message) from None
    outside = [b for b in train_cfg.freeze_blocks
               if not 1 <= b <= model_cfg.num_blocks]
    if outside:
        raise ConfigError(
            f"[train] freeze_blocks {outside} not among the model's blocks "
            f"1..{model_cfg.num_blocks}"
        )

    # keys a file leaves out take AppConfig's defaults; what is left of
    # [audio] is sample_rate_hz
    return AppConfig(
        model=model_cfg,
        train=train_cfg,
        **audio,
        **{f"data_{k}": v for k, v in data.items()},
    )

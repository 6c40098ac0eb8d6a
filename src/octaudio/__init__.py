"""Perceptual audio toolkit: MDCT representation, psychoacoustic masking,
octave-structured adversarial models and a small analysis CLI."""

from .audio_io import AudioBuffer, read_wav, resample, write_wav
from .errors import (
    ConfigError,
    DivergenceError,
    IoError,
    OctaudioError,
    ParseError,
    ShapeError,
    UnsupportedFormat,
)
from .mdct import (
    MdctTensor,
    band_center_hz,
    load_tensor,
    mdct_forward_fast,
    mdct_forward_naive,
    mdct_inverse,
    save_tensor,
    vorbis_window,
)
from .psycho import (
    BarkPartition,
    MaskingThresholds,
    absolute_threshold,
    absolute_threshold_db,
    bark_partition,
    compute_thresholds,
    masking_threshold,
    noise_sigma,
    psychoacoustic_noise,
    quantization_step,
    quantize,
    tonality,
)
from .spectral import (
    mean_tonality,
    reduce_spectrogram,
    signed_db_image,
    spectrogram,
    to_db_image,
    tonality_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

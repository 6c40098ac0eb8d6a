"""Spectrogram rendering, tonality reporting and octave folding.

Images are 8-bit binary PGM (P5) with time on the x-axis and band 0 at the
bottom. Intensities are shown on a dB scale clipped `db_floor` dB below the
maximum.
"""

import numpy as np

from . import _decimal
from .errors import IoError, ShapeError
from .psycho import tonality

DEFAULT_DB_FLOOR = -100.0


def spectrogram(amplitudes):
    """Per-channel squared amplitudes of an (M, N, C) amplitude grid."""
    return np.asarray(amplitudes, dtype=np.float64) ** 2


def write_pgm(pixels, path):
    """Write a 2-D uint8 array as binary PGM (P5), row 0 at the top."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ShapeError("PGM pixels must be 2-D")
    height, width = pixels.shape
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _db_scaled(magnitude, peak, db_per_decade, db_floor):
    """Non-negative magnitude in dB (db_per_decade * log10) mapped linearly
    from [peak_dB + db_floor, peak_dB] onto [0, 1], clipped; all zeros when
    the peak is not positive. peak is the magnitude's maximum, or that of
    the whole grid when magnitude is a piece of it."""
    if peak is None:
        peak = magnitude.max(initial=0.0)
    if peak <= 0.0:
        return np.zeros(magnitude.shape)
    floor = peak * 10.0 ** (db_floor / db_per_decade)
    level_db = db_per_decade * np.log10(np.maximum(magnitude, floor))
    top = db_per_decade * np.log10(peak)
    return np.clip((level_db - (top + db_floor)) / -db_floor, 0.0, 1.0)


def db_pixels(values, db_floor=DEFAULT_DB_FLOOR, peak=None):
    """Map non-negative values onto [0, 255] over [max_dB + db_floor, max_dB].

    values is (M, N); output is (N, M) with band 0 in the last row.
    An all-zero input maps to all-zero pixels. A caller drawing a grid a
    few columns at a time passes the whole grid's peak (default: the
    values' max).
    """
    scaled = _db_scaled(np.asarray(values, dtype=np.float64), peak, 10.0,
                        db_floor)
    return np.round(255.0 * scaled).astype(np.uint8).T[::-1]


def to_db_image(power, path, db_floor=DEFAULT_DB_FLOOR):
    """Render the channel-averaged (M, N, C) power grid as a dB-scale PGM."""
    write_pgm(db_pixels(power.mean(axis=2), db_floor), path)


def signed_db_pixels(amplitudes, db_floor=DEFAULT_DB_FLOOR, peak=None):
    """Map signed amplitudes around mid-gray 128.

    The offset from 128 grows with the dB magnitude of |A| above the floor
    and the sign selects the side, so negating the input reflects the image
    about mid-gray (pixel -> 256 - pixel). peak is the max |A|, as for
    db_pixels.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    scaled = _db_scaled(np.abs(amplitudes), peak, 20.0, db_floor)
    offset = np.round(127.0 * scaled) * np.sign(amplitudes)
    return (128 + offset).astype(np.uint8).T[::-1]


def signed_db_image(amplitudes, path, db_floor=DEFAULT_DB_FLOOR):
    """Render channel 0 of (M, N, C) signed amplitudes as a PGM around
    mid-gray."""
    write_pgm(signed_db_pixels(amplitudes[:, :, 0], db_floor), path)


def blur_time(values):
    """Average adjacent block pairs: (M, N, ...) -> (M/2, N, ...)."""
    if values.shape[0] % 2:
        raise ShapeError("block count must be even to blur the time axis")
    return 0.5 * (values[0::2] + values[1::2])


def fold_frequency(values):
    """Fold the top half of the bands onto the second quarter.

    out[k] = in[k] for k < N/4, and in[k] + in[2k] + in[2k+1] for
    N/4 <= k < N/2. Linear and energy conserving; a component at frequency f
    in the top half lands in the same output band as one at f/2.
    """
    bands = values.shape[1]
    if bands % 4:
        raise ShapeError("band count must be divisible by 4 to fold")
    quarter = bands // 4
    out = values[:, :2 * quarter].copy()
    top = values[:, 2 * quarter:]
    out[:, quarter:] += top[:, 0::2] + top[:, 1::2]
    return out


def reduce_spectrogram(power, folds):
    """Repeatedly blur the time axis (x2) and fold the top octave.

    power is an (M, N, C) grid. Both axes halve per fold; the returned list
    holds folds + 1 levels, level 0 being the input grid.
    """
    folds = int(folds)
    if folds < 0:
        raise ValueError("folds must be non-negative")
    values = np.asarray(power, dtype=np.float64)
    if values.ndim != 3:
        raise ShapeError("power must have shape (blocks, bands, channels)")
    blocks, bands = values.shape[:2]
    if blocks % (2 ** folds) or bands % (2 ** folds):
        raise ShapeError(f"grid {blocks}x{bands} is not divisible by 2^{folds}")
    levels = [values]
    for _ in range(folds):
        values = fold_frequency(blur_time(values))
        levels.append(values)
    return levels


def tonality_series(amplitudes):
    """Channel-averaged per-block tonality tau(m) of (M, N, C) amplitudes."""
    return tonality(np.moveaxis(amplitudes, 2, 0)).mean(axis=0)


def mean_tonality(amplitudes):
    """Scalar tonality: the per-block series averaged over blocks."""
    return float(tonality_series(amplitudes).mean())


def write_tonality_csv(series, block_seconds, path):
    """CSV rows (block_index, time_seconds, tau) of a per-block series, in
    the bytes of an excel-dialect csv.writer ("\r\n" line ends): time as
    format(m * block_seconds, ".6f"), tau as format(x, ".9f")."""
    blocks = np.arange(len(series))
    with open(path, "w", newline="") as fh:
        fh.write("block_index,time_seconds,tau\r\n")
        fh.write(_decimal.csv_rows(
            _decimal.fixed(blocks, 0),
            _decimal.fixed(blocks * block_seconds, 6),
            _decimal.fixed(series, 9)))

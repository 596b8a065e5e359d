"""Scalar quantization primitives.

Mid-rise uniform quantizers with optional non-subtractive dither, support
sizing for overload control, and the piecewise-constant quantizers obtained
by hardening a trained soft quantizer.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformQuantizerSpec",
    "LearnedQuantizerSpec",
    "uniform_quantize",
    "dithered_quantize",
    "noise_variance",
    "overload_safe_support",
    "learned_quantize",
]


@dataclass(frozen=True)
class UniformQuantizerSpec:
    """Uniform mid-rise scalar quantizer with `levels` cells on [-support, support].

    The output alphabet is the set of cell midpoints
    ``-support + spacing * (l + 1/2)`` for ``l = 0, ..., levels - 1``; inputs
    beyond the support saturate to the outermost level. With two levels this
    is a sign quantizer with output ``+-support/2``. `dithered` says whether
    the ADC adds non-subtractive uniform dither one cell wide before
    quantizing; pipelines and Monte Carlo rows dither exactly when it is set.
    """

    levels: int
    support: float
    dithered: bool = False

    def __post_init__(self):
        if int(self.levels) != self.levels or self.levels < 2:
            raise ValueError(f"levels must be an integer >= 2, got {self.levels}")
        if not (math.isfinite(self.support) and self.support > 0):
            raise ValueError(f"support must be positive and finite, got {self.support}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.support / self.levels

    def alphabet(self) -> np.ndarray:
        """All output levels, ascending."""
        cells = np.arange(self.levels)
        return -self.support + self.spacing * (cells + 0.5)


@dataclass(frozen=True, eq=False)
class LearnedQuantizerSpec:
    """Piecewise-constant scalar quantizer with free thresholds and levels.

    `levels` holds the output value of each cell, one more entry than
    `thresholds`. The map is monotone only when the levels are sorted; a
    non-monotone spec is legal but flagged with a warning at construction.
    """

    thresholds: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        v = np.atleast_1d(np.asarray(self.levels, dtype=float))
        if v.size != t.size + 1:
            raise ValueError(
                f"need exactly one more level than thresholds, got {v.size} levels "
                f"for {t.size} thresholds")
        if t.size and not np.all(np.diff(t) > 0):
            raise ValueError("thresholds must be strictly increasing")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "levels", v)
        if not self.is_monotone:
            warnings.warn("learned quantizer levels are not non-decreasing",
                          stacklevel=2)

    @property
    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.levels) >= 0))


# Rows of one section of a row-wise pass too large to hold at once: a large
# draw's tasks and noise, a quadratic-form evaluation, a support calibration.
_SECTION_ROWS = 1024


def _row_sections(rows: int) -> int:
    """How many equal sections of at most _SECTION_ROWS rows cover `rows`
    rows; at least one. Equal sections never leave a lone row, which numpy
    would multiply as a vector, rounded apart from the same row of a matrix
    product."""
    return max(1, -(-rows // _SECTION_ROWS))


def _check_finite(z):
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("quantizer input must be finite")
    return z


def _to_cells(buf, spec: UniformQuantizerSpec):
    """Replace each entry of the float array `buf` by its cell's index."""
    buf += spec.support
    buf /= spec.spacing
    np.floor(buf, out=buf)
    return np.clip(buf, 0, spec.levels - 1, out=buf)


def _to_midpoints(buf, spec: UniformQuantizerSpec):
    """Replace each entry of the float array `buf` by its cell's midpoint."""
    _to_cells(buf, spec)
    buf += 0.5
    buf *= spec.spacing
    buf -= spec.support
    return buf if buf.ndim else float(buf)


def uniform_quantize(z, spec: UniformQuantizerSpec):
    """Quantize to the midpoint of the cell containing z.

    Cells are half-open on the right, so a value sitting exactly on a cell
    boundary belongs to the upper cell. Scalars in, scalar out; arrays are
    quantized elementwise.
    """
    return _to_midpoints(_check_finite(np.array(z, dtype=float)), spec)


def dithered_quantize(z, spec: UniformQuantizerSpec, rng: np.random.Generator):
    """Quantize z + u with u drawn i.i.d. uniform on [-spacing/2, spacing/2].

    The dither is not subtracted after quantization. On in-support input the
    error has zero mean, but its variance depends on the input (see
    `noise_variance` for when it is spacing^2 / 6).
    """
    if not spec.dithered:
        raise ValueError("spec is not dithered; use uniform_quantize")
    u = rng.uniform(-0.5 * spec.spacing, 0.5 * spec.spacing, size=np.shape(z))
    u += np.asarray(z, dtype=float)
    return _to_midpoints(_check_finite(u), spec)


def noise_variance(spec: UniformQuantizerSpec) -> float:
    """Error variance spacing^2 / 6 = 2 S^2 / (3 L^2) of a dithered quantizer.

    Dither makes the error's mean independent of the input, not its variance:
    given input z the variance is periodic in z, 0 at cell midpoints and
    spacing^2 / 4 at thresholds, so the law holds only on input spread over
    many cells. At 2 levels E[e^2] = S^2 / 4 - E[z^2] (ROADMAP.md item 1).
    """
    return 2.0 * spec.support ** 2 / (3.0 * spec.levels ** 2)


def overload_safe_support(std_multiple: float, levels: int, channels: int):
    """Support half-range that keeps overload rare across `channels` ADCs.

    Assumes the channel inputs share unit total power (per-channel variance
    1/channels) and sizes the support to `std_multiple` standard deviations,
    inflated so the dither's own spread is absorbed:

        margin  = std_multiple^2 / (1 - std_multiple^2 / (3 levels^2))
        support = sqrt(margin / channels)

    Returns (support, margin). Requires std_multiple^2 < 3 levels^2, and a
    margin whose dither noise per unit power, 2 margin / (3 levels^2
    channels), is a normal float: the water-fill divides by it.
    """
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    m2 = float(std_multiple) ** 2
    cap = 3.0 * float(levels) ** 2
    if m2 >= cap:
        raise ValueError(
            f"std_multiple^2 = {m2:g} must be below 3 * levels^2 = {cap:g}")
    margin = m2 / (1.0 - m2 / cap)
    if 2.0 * margin / (cap * channels) < sys.float_info.min:
        raise ValueError(f"std_multiple = {std_multiple:g} is too small: its "
                         f"margin underflows")
    support = math.sqrt(margin / channels)
    return support, margin


def learned_quantize(z, spec: LearnedQuantizerSpec):
    """Map z to the level of its cell; ties at a threshold go to the upper cell."""
    z = _check_finite(z)
    idx = np.searchsorted(spec.thresholds, z, side="right")
    out = spec.levels[idx]
    return out if out.ndim else float(out)

"""Monte Carlo experiment engine.

Runs designed or learned pipelines against scenarios over rate or SNR grids,
with counter-style random streams split per (method, trial block): every grid
point of a sweep replays the same draws, so results are reproducible, a row
does not depend on the other grid points, and adding a method never perturbs
another method's draws. Rows serialize to CSV with a fixed header.
"""

from __future__ import annotations

import configparser
import math
import sys
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import deep, scenarios
from .bounds import SpectrumBound, indirect_drf
from .deep import TrainSettings
from .errors import ConfigError
from .linear_task import (QuantizerDesign, _quantize, design, estimate,
                          fixed_combiner_design)
from .hardware import PartialConnect, PhaseOnly, constrained_design
from .quant import UniformQuantizerSpec
from .scenarios import _BLOCK

__all__ = [
    "CSV_HEADER",
    "ResultRow",
    "ExperimentConfig",
    "TrainSettings",
    "load_config",
    "build_scenario",
    "derive_seed",
    "stream",
    "levels_for",
    "feasible_support_scale",
    "quantizer_count",
    "point_bits",
    "pipeline",
    "bound_row",
    "simulate_mse",
    "simulate_ber",
    "sweep",
    "simulate",
    "write_csv",
    "save_csv",
    "train_deep_estimator",
    "train_deep_classifier",
]

CSV_HEADER = "axis,method,metric,estimate,std_error,trials"


@dataclass
class ResultRow:
    axis: float
    method: str
    metric: str
    estimate: float
    std_error: float
    trials: int
    wall_time_ms: float = 0.0

    def csv_line(self) -> str:
        return (f"{self.axis!r},{self.method},{self.metric},"
                f"{self.estimate!r},{self.std_error!r},{self.trials}")


def write_csv(rows: Sequence[ResultRow], fh):
    """Write the CSV header and `rows` to the open text stream `fh`."""
    fh.write(CSV_HEADER + "\n")
    for row in rows:
        fh.write(row.csv_line() + "\n")


def save_csv(rows: Sequence[ResultRow], path):
    """Write `rows` as CSV to the file at `path`: UTF-8, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(rows, fh)


def _key_to_int(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode())
    return int(key) & 0xFFFFFFFF


def derive_seed(root: int, *keys) -> int:
    """Deterministic child seed for a labeled stream."""
    entropy = [int(root) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def stream(root: int, *keys) -> np.random.Generator:
    return np.random.default_rng(derive_seed(root, *keys))


@dataclass
class ExperimentConfig:
    scenario: str
    method: str = "task_based"
    axis: str = "rate_bits"
    grid: tuple = ()
    trials: int = 10000
    seed: int = 0
    dither: bool = True
    output: Optional[str] = None
    channels: Optional[int] = None
    levels: Optional[int] = None
    support_scale: float = 4.0
    support_scale_range: Optional[tuple] = None
    rate_bits: Optional[float] = None
    snr_db: Optional[float] = None
    csi_fraction: float = 0.0
    csi_seed: int = 0
    constraint: Optional[str] = None
    partition: Optional[tuple] = None
    train: TrainSettings = field(default_factory=TrainSettings)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("[sweep] trials: must be >= 1")
        if self.grid:
            g = tuple(float(v) for v in self.grid)
            if not all(math.isfinite(v) for v in g):
                raise ConfigError("[sweep] grid: values must be finite")
            if any(b <= a for a, b in zip(g, g[1:])):
                raise ConfigError("[sweep] grid: values must be strictly ascending")
            self.grid = g
        if self.rate_bits is not None and not math.isfinite(self.rate_bits):
            raise ConfigError("[sweep] rate_bits: must be finite")
        if self.channels is not None and self.channels < 1:
            raise ConfigError("[design] channels: at least 1 channel required")
        if self.levels is not None and self.levels < 2:
            raise ConfigError("[design] levels: at least 2 levels required")
        scale_range = self.support_scale_range
        if scale_range is not None and len(scale_range) != 2:
            raise ConfigError("[design] support_scale_range: expected two values")
        for key, values in (("support_scale", (self.support_scale,)),
                            ("support_scale_range", scale_range or ())):
            if not all(math.isfinite(v) and v > 0 for v in values):
                raise ConfigError(f"[design] {key}: values must be finite "
                                  f"and positive")
        if self.axis not in ("rate_bits", "snr_db"):
            raise ConfigError(f"[sweep] axis: unknown axis {self.axis!r}")
        if not 0.0 <= self.csi_fraction < math.inf:
            raise ConfigError("[scenario] csi_fraction: must be finite and >= 0")
        if self.snr_db is not None:
            _linear_snr(self.snr_db)
        if self.axis == "snr_db":
            for value in self.grid:
                _linear_snr(value, "[sweep] grid")
        if self.csi_seed < 0:
            raise ConfigError("[scenario] csi_seed: must be >= 0")
        if self.partition is not None:
            if not all(float(v).is_integer() and v >= 0 for v in self.partition):
                raise ConfigError("[design] partition: owners must be whole "
                                  "numbers >= 0")
            self.partition = tuple(int(v) for v in self.partition)


_METHODS = ("task_based", "mmse_then_quantize", "digital_only", "deep",
            "constrained", "map", "quantized_map")


def build_scenario(config: ExperimentConfig) -> scenarios.ScenarioSpec:
    name = config.scenario
    if name == "isi":
        spec = scenarios.isi_scenario()
    elif name == "covariance":
        spec = scenarios.covariance_scenario()
    elif name == "dft_pilot":
        spec = scenarios.dft_pilot_scenario()
    elif name == "bpsk":
        if config.snr_db is None:
            raise ConfigError("[scenario] snr_db: required for the bpsk scenario")
        spec = scenarios.bpsk_scenario(_linear_snr(config.snr_db))
    else:
        raise ConfigError(f"[scenario] name: unknown scenario {name!r}")
    if config.csi_fraction > 0:
        spec = scenarios.csi_perturb(spec, config.csi_fraction, config.csi_seed)
    return spec


def _linear_snr(snr_db: float, key: str = "[scenario] snr_db") -> float:
    """snr_db as a linear SNR; ConfigError naming `key` when that is not
    finite and positive."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise ConfigError(f"{key}: {snr_db:g} dB gives no finite positive SNR")
    return snr


def feasible_support_scale(requested: float, levels: int) -> float:
    """Largest usable std multiple: the support rule breaks at sqrt(3) * levels."""
    return min(requested, 0.95 * math.sqrt(3.0) * levels)


def _support_scale_at(config: ExperimentConfig, bits: float) -> float:
    """Std multiple at `bits`; the range runs over the grid, held at its ends."""
    if config.support_scale_range is None or not config.grid:
        return config.support_scale
    lo, hi = config.support_scale_range
    g0, g1 = config.grid[0], config.grid[-1]
    if g1 == g0:
        return lo
    bits = min(max(bits, g0), g1)
    return lo + (hi - lo) * (bits - g0) / (g1 - g0)


def levels_for(bits: float, channels: int) -> int:
    """Most levels per quantizer that `bits` over `channels` quantizers buys.

    A budget computed as channels * log2(L) maps back to exactly L: the
    tolerance forgives the rounding that leaves 2^(bits/channels) just below
    the integer L (at 8 channels, 5 levels would otherwise come back as 4).
    """
    try:
        levels = int(math.floor(2.0 ** (bits / channels) + 1e-9))
    except OverflowError:
        raise ConfigError(f"budget of {bits:g} bits over {channels} quantizers "
                          f"needs more levels than a float can hold") from None
    if levels < 2:
        raise ConfigError(
            f"budget of {bits:g} bits over {channels} quantizers leaves "
            f"fewer than 1 bit per quantizer")
    return levels


def _squared_errors(scenario, predict):
    """Block function (rng, count) -> per-trial squared task error of
    predict(tasks, obs, rng)."""
    def block(rng, count):
        tasks, obs = rng.sample(scenario.sampler, count)
        err = predict(tasks, obs, rng)
        err -= tasks
        np.square(err, out=err)
        return err.sum(axis=1)

    return block


def _design_errors(scenario, des: QuantizerDesign):
    """Per-trial squared errors of a designed pipeline with its fixed combiner.

    Gaussian linear scenarios draw only y = A x and score each trial by the
    task's conditional mean plus its closed-form residual (the same expected
    error, from p normals per trial instead of k + n, and with no more
    variance), so the n-dimensional observation is never built; quadratic
    scenarios draw x and evaluate the combiner rows as quadratic forms on it,
    built once per row (`LiftedTaskModel.combiner`).
    """
    if scenario.kind == "quadratic":
        lifted = scenario.lifted
        combiner = lifted.combiner(des)
        return _squared_errors(scenario, lambda _, x, rng: lifted.estimate(
            des, x, rng=rng, combiner=combiner))
    law = scenario.conditional_law(des.analog)
    _, mean_map, residual = law

    def block(rng, count):
        drawn = list(scenario.sampler(rng, count, law=law))   # [g, y = g R]
        # estimate holds the only reference to y, so y is freed before the
        # recovery product is allocated: one (count, p) buffer less at the peak
        err = estimate(des, drawn.pop(), rng=rng, combined=True)
        err -= drawn[0] @ mean_map
        np.square(err, out=err)
        return err.sum(axis=1) + residual

    return block


def quantizer_count(method: str, scenario, channels: Optional[int],
                    bits: Optional[float] = None) -> int:
    """ADCs `method` spreads its bit budget over on `scenario`.

    mmse_then_quantize quantizes each task estimate, digital_only and
    quantized_map each antenna. The deep classifier defaults to
    floor(k * bits / n) ADCs, the deep estimator and the designed pipelines
    to one per task entry; a configured channel count overrides either."""
    if method in ("digital_only", "quantized_map"):
        return scenario.n
    if method == "mmse_then_quantize":
        return scenario.k
    if method == "deep" and scenario.kind == "classification" and not channels:
        if bits is None:
            raise ConfigError("[design] channels: the deep classifier needs it to "
                              "spend `levels`, or a [sweep] rate_bits budget")
        channels = int(math.floor(scenario.k * bits / scenario.n))
        if channels < 1:
            raise ConfigError(f"rate {bits / scenario.n:g} leaves no quantizers")
    if method != "deep" and scenario.model is None:
        raise ConfigError(f"[scenario] name: {scenario.name} has no design "
                          f"model for {method!r}")
    return channels or scenario.k


_MSE_METHODS = ("task_based", "constrained", "mmse_then_quantize",
                "digital_only")


def point_bits(config: ExperimentConfig, scenario) -> float:
    """Total bits of the configured method's one budget: `rate_bits` when
    set, else the configured `levels` on each of the method's quantizers
    (`levels_for` maps that budget back to `levels`), else 1 bit per antenna
    on a classification scenario."""
    if config.rate_bits is not None:
        return float(config.rate_bits)
    if config.levels is not None:
        channels = quantizer_count(config.method, scenario, config.channels)
        return channels * float(np.log2(config.levels))
    if scenario.kind == "classification":
        return float(scenario.n)
    raise ConfigError("[design] levels or [sweep] rate_bits: one is required")


def pipeline(config: ExperimentConfig, scenario, bits: Optional[float] = None):
    """(design, realized bits, block (rng, count) -> squared errors) of the
    configured MSE method at `bits`, or at `point_bits` when `bits` is unset.

    The design is the ADC spec alone for the per-dimension baselines on a
    quadratic scenario. Realized bits can fall short of `bits`, or exceed
    them for the quadratic `digital_only`, whose levels floor at two.
    """
    method = config.method
    if method not in _MSE_METHODS:
        raise ConfigError(f"[sweep] method: {method!r} does not produce MSE rows")
    quadratic = scenario.kind == "quadratic"
    if method == "constrained" and quadratic:
        raise ConfigError("[sweep] method: constrained applies to linear scenarios")
    if bits is None:
        bits = point_bits(config, scenario)
    model = scenario.model
    channels = quantizer_count(method, scenario, config.channels)
    levels = levels_for(max(bits, channels) if quadratic and method == "digital_only"
                        else bits, channels)
    scale = feasible_support_scale(_support_scale_at(config, bits), levels)
    realized = channels * math.log2(levels)

    if quadratic and method != "task_based":   # one ADC per task or input
        if method == "mmse_then_quantize":   # the tasks are their own MMSE estimate
            lifted = scenario.lifted
            var = np.diag(lifted.model.estimate_covariance())
            std = np.sqrt(var) + np.abs(lifted.offsets)
            predict = lambda tasks, _, rng: _quantize(tasks, spec, rng)
        else:
            task = scenario.task
            std = np.sqrt(np.diag(task.input_cov))
            predict = lambda _, x, rng: task.values(_quantize(x, spec, rng))
        spec = UniformQuantizerSpec(levels, scale * float(std.max()),
                                    dithered=config.dither)
        return spec, realized, _squared_errors(scenario, predict)

    if method == "task_based":
        des = design(model, channels, levels, scale)
    elif method == "constrained":
        constraint = _parse_constraint(config, model.n, channels)
        des = constrained_design(model, constraint, channels, levels, scale)
    else:
        combiner = (model.task_matrix if method == "mmse_then_quantize"
                    else np.eye(model.n))
        des = fixed_combiner_design(combiner, model, levels, scale)
    des = replace(des, quantizer=replace(des.quantizer, dithered=config.dither))
    if method == "digital_only":
        # A = I: the conditional draw would save little, so sample x itself
        return des, realized, _squared_errors(scenario, lambda _, x, rng: estimate(
            des, x, rng=rng))
    return des, realized, _design_errors(scenario, des)


def _parse_constraint(config: ExperimentConfig, n: int, channels: int):
    kind = config.constraint
    if kind is None:
        raise ConfigError("[design] constraint: required for method = constrained")
    if kind == "phase_only":
        return PhaseOnly()
    if kind == "partial":
        owners = config.partition
        if owners is None:
            raise ConfigError("[design] partition: required for the partial constraint")
        if len(owners) != n:
            raise ConfigError(f"[design] partition: expected {n} entries")
        if set(owners) != set(range(channels)):
            raise ConfigError(f"[design] partition: owners must be the "
                              f"quantizers 0..{channels - 1}, each owning at "
                              f"least one antenna")
        return PartialConnect(owners)
    raise ConfigError(f"[design] constraint: unknown kind {kind!r}")


class _Replay:
    """Generator stand-in that hands every row of a trial block the same draws.

    The first row's calls draw from `rng`; after `rewind`, each later row must
    make the same calls, with the same shapes, in the same order, and receives
    the same arrays. Every array is read-only, so no row can alter another
    row's draws. `uniform(low, high, size)` replays the stored `random(size)`
    as low + (high - low) r, bit for bit what `Generator.uniform` returns, so
    rows may differ in their bounds. `sample` shares a sampler's outputs the
    same way, so its deterministic work also runs once per block.

    `previous` is the draw list of the block before. A `standard_normal` or
    `random` call that matches that block's call at the same position is
    drawn into that block's array (the Generator's `out=`, the same values)
    instead of a new one, so full blocks reuse their draw buffers; `integers`
    draws and a block of another size allocate. Rows finish a block before the
    next block draws, so no row sees an array change under it, and a refilled
    array is read-only again before any row gets it.
    """

    def __init__(self, rng: np.random.Generator, previous=()):
        self._rng = rng
        self._previous = previous
        self._draws = []        # (call, array) in call order
        self._samples = {}      # sampler -> (count, first draw, end, outputs)
        self._next = 0
        self._recording = True

    def rewind(self):
        """Start the next row at the first recorded draw."""
        self._next, self._recording, self._previous = 0, False, ()

    def _refill(self, call):
        """The previous block's array for `call` at this position, refilled
        from `rng`; None for an `integers` call, or where that block drew
        otherwise, which also releases its arrays before this block's."""
        at = len(self._draws)
        if at >= len(self._previous) or self._previous[at][0] != call:
            self._previous = ()
            return None
        if call[0] == "integers":
            return None
        values = self._previous[at][1]
        values.flags.writeable = True
        getattr(self._rng, call[0])(out=values)
        return values

    def _take(self, call, draw):
        if self._next == len(self._draws):
            if not self._recording:
                raise ValueError(f"replayed row asks for {call}, beyond the "
                                 f"first row's draws")
            values = self._refill(call)
            if values is None:
                values = np.asarray(draw())
            values.flags.writeable = False
            self._draws.append((call, values))
        recorded, values = self._draws[self._next]
        if recorded != call:
            raise ValueError(f"replayed row asks for {call} where the first "
                             f"row drew {recorded}")
        self._next += 1
        return values

    def standard_normal(self, size):
        return self._take(("standard_normal", size),
                          lambda: self._rng.standard_normal(size))

    def integers(self, low, high, size):
        return self._take(("integers", low, high, size),
                          lambda: self._rng.integers(low, high, size=size))

    def uniform(self, low, high, size):
        u = np.multiply(self._take(("random", size),
                                   lambda: self._rng.random(size)), high - low)
        u += low
        return u

    def sample(self, sampler, count):
        """sampler(self, count), run once per block for each sampler object.

        The first call runs the sampler on this replay and stores its outputs
        read-only with the draws it consumed. A later call with the same
        sampler must start at the same draw and `count`; it skips past those
        draws and gets the stored outputs, so draws made after it still
        replay in order. A sampler first met in a later row just runs.
        """
        shared = self._samples.get(sampler)
        if shared is None:
            start = self._next
            outputs = sampler(self, count)
            for array in outputs:
                array.flags.writeable = False
            if self._recording:
                self._samples[sampler] = (count, start, self._next, outputs)
            return outputs
        recorded, start, end, outputs = shared
        if (recorded, start) != (count, self._next):
            raise ValueError(f"row samples {count} trials at draw {self._next} "
                             f"where the first row sampled {recorded} at draw "
                             f"{start}")
        self._next = end
        return outputs


def _monte_carlo_rows(blocks, trials: int, seed: int):
    """(mean, standard error, seconds) of each row's per-trial values.

    blocks[i](rng, count) returns row i's value per trial. Trial block b
    makes one generator from SeedSequence([seed, b]) and every row replays
    its draws (`_Replay`), so rows share their trials, and the scenario's
    sampled tasks and observations too (`_Replay.sample`). Each row reduces
    each block to (count, mean, M2) and merges in block order (Chan, Golub &
    LeVeque 1983), so memory stays O(block) however many trials run; seconds
    is the time spent in the row's own block calls, so the first row's
    seconds (its `wall_time_ms`) include the block's shared draws and
    sampling. One trial has no standard error (nan).
    """
    stats = [[0.0, 0.0, 0.0] for _ in blocks]   # mean, M2, seconds
    done, recorded = 0, ()
    for idx in range(-(-trials // _BLOCK)):
        count = min(_BLOCK, trials - done)
        total = done + count
        draws = _Replay(np.random.default_rng(np.random.SeedSequence([seed, idx])),
                        recorded)
        recorded = draws._draws
        for block, row in zip(blocks, stats):
            start = time.perf_counter()
            values = block(draws, count)
            draws.rewind()
            block_mean = float(values.mean())
            block_m2 = float(((values - block_mean) ** 2).sum())
            delta = block_mean - row[0]
            row[0] += delta * count / total
            row[1] += block_m2 + delta * delta * done * count / total
            row[2] += time.perf_counter() - start
        done = total
    return [(mean, math.sqrt(m2 / (done - 1) / done) if done > 1 else float("nan"),
             seconds) for mean, m2, seconds in stats]


def _monte_carlo(block, trials: int, seed: int):
    """Mean and standard error of one row's per-trial values."""
    return _monte_carlo_rows([block], trials, seed)[0][:2]


def _timed_row(method: str, metric: str, make_block, trials: int,
               seed: int) -> ResultRow:
    """Timed row of the per-trial values of the block make_block() builds."""
    start = time.perf_counter()
    est, se = _monte_carlo(make_block(), trials, seed)
    return ResultRow(axis=float("nan"), method=method, metric=metric,
                     estimate=est, std_error=se, trials=trials,
                     wall_time_ms=(time.perf_counter() - start) * 1000.0)


def simulate_mse(design_: QuantizerDesign, scenario, trials: int,
                 seed: int) -> ResultRow:
    """Empirical total MSE of a designed pipeline on a scenario; the ADC
    dithers when the design's quantizer spec says so."""
    return _timed_row("task_based", "mse",
                      lambda: _design_errors(scenario, design_), trials, seed)


def _clean_draw(scenario):
    """Sampler (rng, count) -> (labels, s H^T) of the scenario's noiseless
    draw, the part of a trial block that every SNR point of a sweep shares."""
    def draw(rng, count):
        symbols, clean = scenario.sampler(rng, count, noise=False)
        return scenarios.symbols_to_labels(symbols), clean

    return draw


def _bit_error_fractions(detector, scenario, clean):
    """Block function (rng, count) -> per-trial fraction of label bits wrong,
    on x = s H^T + std w: the noiseless draw `clean` (`_clean_draw`) that SNR
    points share, plus the point's own std times normals drawn after it."""
    noise_std, k = np.sqrt(scenario.noise_var), scenario.k

    def block(rng, count):
        truth, x = rng.sample(clean, count)
        x = noise_std * rng.standard_normal(x.shape) + x
        return scenarios.bit_errors(detector(x), truth, k) / k

    return block


def simulate_ber(detector, scenario, trials: int, seed: int) -> ResultRow:
    """Empirical bit error rate of a labels-from-observations detector."""
    return _timed_row("map", "ber", lambda: _bit_error_fractions(
        detector, scenario, _clean_draw(scenario)), trials, seed)


def bound_row(scenario, bits: float) -> ResultRow:
    """Rate-distortion lower bound at `bits` for a Gaussian linear scenario,
    over the descending task-estimate spectrum, clipped at zero."""
    if scenario.kind != "linear":
        raise ConfigError("[scenario] name: bound curves need a Gaussian "
                          "linear scenario")
    model = scenario.model
    spectrum = np.linalg.eigvalsh(model.estimate_covariance())[::-1]
    bound = SpectrumBound(eigenvalues=np.clip(spectrum, 0.0, None),
                          mmse_floor=model.mmse_floor, rate_bits=bits)
    return ResultRow(axis=bits, method="bound", metric="mse",
                     estimate=indirect_drf(bound), std_error=0.0, trials=0)


def sweep(config: ExperimentConfig, verbose: bool = False, scenario=None):
    """One row per grid point for the configured method, then bound rows for
    Gaussian linear scenarios on rate sweeps. Writes CSV when an output path
    is configured. A rate sweep builds its scenario unless given one.

    Each grid point builds its block function first (a design, a detector,
    or a network trained from its own (method, grid point) stream); then
    every row runs `[sweep] trials` trials together, block by block, on the
    draws of the method's grid-0 stream, so a row depends only on its own
    grid point and a one-point sweep reproduces it."""
    if config.method not in _METHODS:
        raise ConfigError(f"[sweep] method: unknown method {config.method!r}")
    if not config.grid:
        raise ConfigError("[sweep] grid: at least one point required")
    rate = config.axis == "rate_bits"
    if rate:
        scenario = scenario or build_scenario(config)
        points = [scenario] * len(config.grid)
    else:   # each SNR point is its own scenario
        points = [build_scenario(replace(config, snr_db=value))
                  for value in config.grid]
    # the rate axis runs estimation scenarios and the SNR axis classification
    # ones: checked once, before any block is built or any network trains
    if rate == (points[0].kind == "classification"):
        raise ConfigError(f"[sweep] axis: {config.axis} sweeps need "
                          f"{'an estimation' if rate else 'a classification'} "
                          f"scenario, not {points[0].name}")
    # every SNR point spends one budget; map detection spends none
    spends = not rate and config.method in ("deep", "quantized_map")
    bits = point_bits(config, points[0]) if spends else None
    budgets = config.grid if rate else [bits] * len(points)
    deep_rows = config.method == "deep"
    if deep_rows:   # an infeasible point trains no network
        for bits, scenario in zip(budgets, points):
            levels_for(bits, quantizer_count("deep", scenario, config.channels, bits))
    # the SNR rows all read the first point's noiseless draw
    clean = None if rate else _clean_draw(points[0])
    blocks, realized, setup = [], [], []
    # every point builds its block first: an infeasible one fails before any trial
    for idx, (bits, scenario) in enumerate(zip(budgets, points)):
        start = time.perf_counter()
        if deep_rows:
            block, bits = _deep_block(config, scenario, bits, derive_seed(
                config.seed, config.method, idx), clean), None
        elif rate:
            _, bits, block = pipeline(config, scenario, bits)
        else:
            block, bits = _ber_block(config, scenario, bits, clean), None
        blocks.append(block)
        realized.append(bits)
        setup.append(time.perf_counter() - start)
    stats = _monte_carlo_rows(blocks, config.trials,
                              derive_seed(config.seed, config.method, 0))
    rows = [ResultRow(axis=value, method=config.method,
                      metric="mse" if rate else "ber", estimate=est,
                      std_error=se, trials=config.trials,
                      wall_time_ms=(spent + seconds) * 1000.0)
            for value, (est, se, seconds), spent in zip(config.grid, stats, setup)]
    if verbose:
        for row, bits in zip(rows, realized):
            budget = "" if bits is None else f" [realized {bits:g}/{row.axis:g} bits]"
            print(f"{row.method} @ {row.axis:g}: {row.metric}="
                  f"{row.estimate:.6g} (se {row.std_error:.2g}){budget}",
                  file=sys.stderr)
    if rate and scenario.kind == "linear":
        rows.extend(bound_row(scenario, value) for value in config.grid)
    if config.output:
        save_csv(rows, config.output)
    return rows


def simulate(config: ExperimentConfig) -> ResultRow:
    """The sweep row of the config's one point: `snr_db` on an SNR axis,
    else `point_bits` at the std multiple the grid's schedule gives it."""
    scenario = None
    if config.axis == "snr_db":
        if config.snr_db is None:
            raise ConfigError("[scenario] snr_db: required to simulate one "
                              "SNR point")
        point = float(config.snr_db)
    else:
        scenario = build_scenario(config)
        point = point_bits(config, scenario)
        # a one-point grid would restart the support-scale schedule
        config = replace(config, support_scale_range=None,
                         support_scale=_support_scale_at(config, point))
    # bound rows follow the grid rows, so the first row is the point's own
    return sweep(replace(config, grid=(point,), output=None),
                 scenario=scenario)[0]


def _ber_block(config: ExperimentConfig, point, bits: float, clean):
    """Block function (rng, count) -> per-trial bit error fractions of the
    configured reference detector at the SNR point's scenario `point`, on
    the sweep's noiseless draw `clean`. The detector's constants are
    built here, once per point, not once per block."""
    if config.method == "map":
        weights = scenarios.map_weights(point)
        return _bit_error_fractions(
            lambda x: scenarios.map_detect(x, point, weights), point, clean)
    if config.method == "quantized_map":
        levels = levels_for(bits, quantizer_count(config.method, point, None))
        std = np.sqrt(np.diag(point.mixing @ point.mixing.T) + point.noise_var)
        support = feasible_support_scale(config.support_scale, levels) * std.max()
        table = scenarios.QuantizedMapTable(point, levels, support)
        return _bit_error_fractions(lambda x: scenarios.quantized_map_detect(
            x, point, levels, support, table), point, clean)
    raise ConfigError(f"[sweep] method: {config.method!r} does not produce BER rows")


def _deep_block(config: ExperimentConfig, scenario, bits: float, seed: int, clean):
    """Block function of the network trained from `seed` on one grid point's
    scenario at `bits`: per-trial bit error fractions of a classifier on the
    sweep's noiseless draw `clean`, per-trial squared errors of an estimator
    otherwise."""
    hardened = _train_and_harden(scenario, bits, config.channels, config.train,
                                 seed)["hardened"]
    if scenario.kind == "classification":
        return _bit_error_fractions(lambda x: deep.classify(hardened, x),
                                    scenario, clean)
    return _squared_errors(scenario, lambda _, obs, rng: deep.forward(hardened, obs))


def _train_and_harden(scenario, total_bits: float, channels: Optional[int],
                      settings: TrainSettings, seed: int) -> dict:
    """Draw training data, build the scenario's network (class logits or task
    estimates) over the deep `quantizer_count`, train it and harden it."""
    p = quantizer_count("deep", scenario, channels, total_bits)
    levels = levels_for(total_bits, p)
    targets, obs = scenario.train_sampler(stream(seed, "train-data"),
                                          settings.train_size)
    head, outputs = "estimation", scenario.k
    if scenario.kind == "classification":
        head, outputs = "classification", scenario.symbols.shape[0]
        targets = scenarios.symbols_to_labels(targets)
    net = deep.build_network(stream(seed, "init"), scenario.n, p, outputs,
                             levels, obs, settings, head=head)
    history = deep.train(net, obs, targets, settings, derive_seed(seed, "sgd"))
    return {"net": net, "hardened": deep.harden(net), "history": history,
            "levels": levels, "channels": p}


def train_deep_estimator(scenario, total_bits: float, channels: Optional[int],
                         settings: TrainSettings, seed: int) -> dict:
    """Train, harden, and score a deep estimation quantizer at a bit budget."""
    result = _train_and_harden(scenario, total_bits, channels, settings, seed)
    hardened = result["hardened"]
    result["test_mse"], result["test_se"] = _monte_carlo(
        _squared_errors(scenario, lambda _, obs, rng: deep.forward(hardened, obs)),
        settings.test_size, derive_seed(seed, "test-data"))
    return result


def train_deep_classifier(scenario, total_bits: float,
                          settings: TrainSettings, seed: int,
                          channels: Optional[int] = None) -> dict:
    """Train and harden a deep symbol classifier at a bit budget, over
    `channels` quantizers or, unset, floor(k * bits / n) of them."""
    return _train_and_harden(scenario, total_bits, channels, settings, seed)


# section -> key -> cast; each key names the ExperimentConfig field it sets
# ([train] keys: TrainSettings fields), except [scenario] name -> scenario
_KEYS = {
    "scenario": {"name": str, "snr_db": float, "csi_fraction": float,
                 "csi_seed": int},
    "design": {"channels": int, "levels": int, "support_scale": float,
               "support_scale_range": tuple, "constraint": str,
               "partition": tuple},
    "sweep": {"method": str, "axis": str, "grid": tuple, "trials": int,
              "seed": int, "dither": bool, "rate_bits": float, "output": str},
    "train": {"epochs": int, "learning_rate": float, "batch_size": int,
              "train_size": int, "test_size": int, "hidden_analog": tuple,
              "hidden_digital": tuple, "support_scale": float,
              "steepness": float},
}


def _cast(raw: str, cast):
    if cast is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if cast is tuple:
        return tuple(float(v) for v in raw.replace(",", " ").split())
    return cast(raw)


def load_config(path) -> ExperimentConfig:
    """Parse the flat key=value config format with section headers.

    Only the keys present are passed on, so each default lives on its field.
    `[simulate]` takes the keys of `[sweep]`; a config has one of the two.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}]: unknown section")
    if parser.has_section("sweep") and parser.has_section("simulate"):
        raise ConfigError("[simulate]: a config has [sweep] or [simulate], "
                          "not both")
    fields, train = {}, {}
    for section in parser.sections():
        casts = _KEYS.get("sweep" if section == "simulate" else section)
        if casts is None:
            raise ConfigError(f"[{section}]: unknown section")
        target = train if section == "train" else fields
        for key, raw in parser.items(section):
            if key not in casts:
                raise ConfigError(f"[{section}] {key}: unknown key")
            try:
                target["scenario" if key == "name" else key] = _cast(raw, casts[key])
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    if "scenario" not in fields:
        raise ConfigError("[scenario] name: required option is missing")
    return ExperimentConfig(**fields, train=TrainSettings(**train))

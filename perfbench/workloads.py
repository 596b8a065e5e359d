"""The benchmark's four workloads: inputs from a seed, timed calls, output checks.

A workload builds every input in its constructor, which is the set-up that
`setup_s` measures, and returns its pass as a list of Steps. A Step's `call`
is the timed program call; its `check` turns the call's result into one
Outcome per operation, where an operation is one grid-point row, one
training config or one model's design set. Tolerances come from the
package's acceptance criteria. Every workload is one closed-loop client:
the next call starts when the previous one returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from taskquant import bounds, deep, hardware, harness, linear_task, scenarios
from taskquant.quant import overload_safe_support

SE_TOL = 3.0          # standard errors allowed by the statistical criteria
EXCESS_TOL = 0.05     # criterion 3: simulated vs predicted excess MSE
DESIGN_TOL = 1e-8     # criterion 2: prediction gap and channel-variance spread
DOMINANCE_TOL = 1e-9  # criterion 10: constrained excess vs unconstrained


@dataclass
class Outcome:
    label: str
    digest: str                      # exact text of the operation's results
    problems: list = field(default_factory=list)
    note: str = ""                   # a finding reported but not gated


@dataclass
class Step:
    label: str
    ops: int                         # operations the call produces
    call: Callable[[], object]
    check: Callable[[object, dict], list]   # (result, pass context) -> Outcomes


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _levels(bits: float, channels: int) -> int:
    # the harness's bits -> levels rule; exact on every grid point used here
    return int(math.floor(2.0 ** (bits / channels)))


def _scale(levels: int, requested: float = 4.0) -> float:
    # the harness's support-scale cap
    return min(requested, 0.95 * math.sqrt(3.0) * levels)


def _not_above(a, b, what: str) -> list:
    """a must not exceed b by more than SE_TOL combined standard errors."""
    slack = SE_TOL * math.hypot(a.std_error, b.std_error)
    if a.estimate > b.estimate + slack:
        return [f"{what}: {a.estimate!r} > {b.estimate!r} + {slack!r} at {a.axis:g}"]
    return []


def check_mse_row(row, bound, floor: float, predicted: float,
                  bits_per_adc: float) -> tuple:
    """Problems and note for one simulated MSE row against the closed forms.

    The bound row must sit below the row. From 2 bits per ADC on, the row
    must match floor + predicted excess within EXCESS_TOL of the excess plus
    SE_TOL standard errors; at 1 bit the gap is only reported, since the
    spacing^2/6 noise model is known to undershoot there.
    """
    problems = []
    if bound is not None and bound.estimate > row.estimate + SE_TOL * row.std_error:
        problems.append(f"bound {bound.estimate!r} above {row.method} "
                        f"{row.estimate!r} at {row.axis:g} bits")
    gap = row.estimate - (floor + predicted)
    note = ""
    if bits_per_adc >= 2:
        if abs(gap) > EXCESS_TOL * predicted + SE_TOL * row.std_error:
            problems.append(f"{row.method} at {row.axis:g} bits: simulated "
                            f"{row.estimate!r} vs predicted {floor + predicted!r}")
    else:
        note = (f"{row.method} at {row.axis:g} bits ({bits_per_adc:g} bit/ADC): "
                f"gap {gap / predicted:+.2%} of excess, "
                f"{gap / row.std_error:+.1f} SE (not gated)")
    return problems, note


class Workload:
    """A workload: `steps()` lists one pass, `warmup()` runs one reduced
    operation, and `items_per_pass` is the work `throughput` counts."""

    name = ""
    rate_name = ""        # what `throughput` counts, under the issue's name
    items_per_pass = 0

    def steps(self) -> list:
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError


def _split_rows(rows):
    pipeline = [r for r in rows if r.method != "bound"]
    bound = {r.axis: r for r in rows if r.method == "bound"}
    return pipeline, bound


class McLinear(Workload):
    """The paper's headline rate sweeps on the Gaussian linear scenarios."""

    name = "mc_linear"
    rate_name = "trials_per_s"
    TRIALS = 100_000
    ISI_GRID = (8.0, 16.0, 24.0, 32.0, 40.0, 48.0)
    DFT_GRID = (120.0, 160.0, 200.0, 240.0)

    def __init__(self, seed: int):
        self.scenarios = {"isi": scenarios.isi_scenario(),
                          "dft_pilot": scenarios.dft_pilot_scenario()}
        self.sweeps = [
            ("isi/task_based", harness.ExperimentConfig(
                scenario="isi", method="task_based", grid=self.ISI_GRID,
                trials=self.TRIALS, seed=_child_seed(seed, 0), channels=8)),
            ("isi/mmse_then_quantize", harness.ExperimentConfig(
                scenario="isi", method="mmse_then_quantize", grid=self.ISI_GRID,
                trials=self.TRIALS, seed=_child_seed(seed, 1), channels=8)),
            ("dft_pilot/task_based", harness.ExperimentConfig(
                scenario="dft_pilot", method="task_based", grid=self.DFT_GRID,
                trials=self.TRIALS, seed=_child_seed(seed, 2), channels=40)),
        ]
        self.predicted = {label: [self._predicted(cfg, bits) for bits in cfg.grid]
                          for label, cfg in self.sweeps}
        self.items_per_pass = sum(len(cfg.grid) * cfg.trials for _, cfg in self.sweeps)
        self._seed = seed

    def _predicted(self, cfg, bits):
        model = self.scenarios[cfg.scenario].model
        if cfg.method == "task_based":
            levels = _levels(bits, cfg.channels)
            des = linear_task.design(model, cfg.channels, levels, _scale(levels))
            return des.predicted_excess_mse
        # mmse_then_quantize: the task map itself as combiner, support sized
        # to the largest channel variance, Wiener digital recovery
        levels = _levels(bits, model.k)
        _, margin = overload_safe_support(_scale(levels), levels, 1)
        analog = model.task_matrix
        var = np.einsum("ij,jk,ik->i", analog, model.obs_cov, analog)
        support = math.sqrt(margin * var.max())
        return linear_task.excess_mse(analog, model, support, levels)

    def steps(self):
        return [Step(label, len(cfg.grid), lambda cfg=cfg: harness.sweep(cfg),
                     lambda rows, ctx, label=label, cfg=cfg:
                         self._check(label, cfg, rows, ctx))
                for label, cfg in self.sweeps]

    def _check(self, label, cfg, rows, ctx):
        pipeline, bound = _split_rows(rows)
        ctx[label] = pipeline
        scenario = self.scenarios[cfg.scenario]
        channels = cfg.channels if cfg.method == "task_based" else scenario.model.k
        outcomes = []
        for row, predicted in zip(pipeline, self.predicted[label]):
            problems, note = check_mse_row(
                row, bound.get(row.axis), scenario.model.mmse_floor, predicted,
                row.axis / channels)
            if cfg.method == "mmse_then_quantize" and "isi/task_based" in ctx:
                task = {r.axis: r for r in ctx["isi/task_based"]}[row.axis]
                problems += _not_above(task, row, "task_based above mmse_then_quantize")
            digest = row.csv_line()
            if row.axis in bound:
                digest += "\n" + bound[row.axis].csv_line()
            outcomes.append(Outcome(f"{label}@{row.axis:g}", digest, problems, note))
        return outcomes

    def warmup(self):
        harness.sweep(harness.ExperimentConfig(
            scenario="isi", method="task_based", grid=(24.0,), trials=8192,
            seed=self._seed, channels=8))


class McLifted(Workload):
    """Quadratic-task sweeps through the lift, and BER through the detectors."""

    name = "mc_lifted"
    rate_name = "trials_per_s"
    TRIALS = 100_000
    RATE_GRID = (8.0, 12.0, 16.0, 20.0, 24.0)
    SNR_GRID = (6.0, 8.0, 10.0)

    def __init__(self, seed: int):
        self.sweeps = [
            (f"covariance/{method}", harness.ExperimentConfig(
                scenario="covariance", method=method, grid=self.RATE_GRID,
                trials=self.TRIALS, seed=_child_seed(seed, idx),
                support_scale_range=(3.0, 6.5)))
            for idx, method in enumerate(
                ("task_based", "mmse_then_quantize", "digital_only"))]
        self.sweeps += [
            (f"bpsk/{method}", harness.ExperimentConfig(
                scenario="bpsk", method=method, axis="snr_db", grid=self.SNR_GRID,
                snr_db=10.0, trials=self.TRIALS, seed=_child_seed(seed, 3 + idx)))
            for idx, method in enumerate(("map", "quantized_map"))]
        self.items_per_pass = sum(len(cfg.grid) * cfg.trials for _, cfg in self.sweeps)
        self._seed = seed

    def steps(self):
        return [Step(label, len(cfg.grid), lambda cfg=cfg: harness.sweep(cfg),
                     lambda rows, ctx, label=label: self._check(label, rows, ctx))
                for label, cfg in self.sweeps]

    def _check(self, label, rows, ctx):
        ctx[label] = rows
        reference = {"covariance/mmse_then_quantize": "covariance/task_based",
                     "covariance/digital_only": "covariance/task_based",
                     "bpsk/quantized_map": "bpsk/map"}.get(label)
        better = {r.axis: r for r in ctx.get(reference, ())}
        outcomes = []
        for row in rows:
            problems = []
            if reference is not None:
                if row.axis not in better:
                    problems.append(f"no {reference} row at {row.axis:g}")
                else:
                    problems = _not_above(better[row.axis], row,
                                          f"{reference} above {label}")
            outcomes.append(Outcome(f"{label}@{row.axis:g}", row.csv_line(), problems))
        return outcomes

    def warmup(self):
        harness.sweep(harness.ExperimentConfig(
            scenario="covariance", method="task_based", grid=(12.0,), trials=8192,
            seed=self._seed))


@dataclass
class TrainCase:
    label: str
    config: harness.ExperimentConfig
    bits: float


class DeepTrain(Workload):
    """Deep-quantizer training in three configs, each limited by another layer:
    the soft quantizer (L64), csi training-data sampling (L8) and the dense
    layers (bpsk)."""

    name = "deep_train"
    rate_name = "train_samples_per_s"
    BER_TRIALS = 20_000

    def __init__(self, seed: int):
        dft = harness.TrainSettings(epochs=2, learning_rate=0.01, batch_size=128,
                                    train_size=2 ** 15, test_size=2 ** 10,
                                    support_scale=4.0, steepness=50.0)
        csi = harness.TrainSettings(epochs=3, learning_rate=0.01, batch_size=128,
                                    train_size=2 ** 13, test_size=2 ** 10,
                                    support_scale=4.0, steepness=50.0)
        # criterion 9's settings, trained for a quarter of its epochs
        bpsk = harness.TrainSettings(epochs=30, learning_rate=0.05, batch_size=64,
                                     train_size=5000, hidden_analog=(24,),
                                     hidden_digital=(32,), support_scale=3.0,
                                     steepness=50.0)
        csi_seed = _child_seed(seed, 99) % 2 ** 31
        self.cases = [
            TrainCase("L64", harness.ExperimentConfig(
                scenario="dft_pilot", channels=40, seed=_child_seed(seed, 0),
                train=dft), 240.0),
            TrainCase("L8", harness.ExperimentConfig(
                scenario="dft_pilot", channels=40, seed=_child_seed(seed, 1),
                csi_fraction=0.2, csi_seed=csi_seed, train=csi), 120.0),
            TrainCase("bpsk", harness.ExperimentConfig(
                scenario="bpsk", snr_db=10.0, seed=_child_seed(seed, 2),
                csi_fraction=0.2, csi_seed=csi_seed, train=bpsk), 12.0),
        ]
        self.floor = scenarios.dft_pilot_scenario().analytic_mmse
        self.items_per_pass = sum(c.config.train.epochs * c.config.train.train_size
                                  for c in self.cases)
        self._seed = seed

    def _train(self, case):
        cfg = case.config
        scenario = harness.build_scenario(cfg)
        if scenario.kind == "classification":
            result = harness.train_deep_classifier(scenario, case.bits,
                                                   settings=cfg.train, seed=cfg.seed)
            clean = scenarios.bpsk_scenario(10.0 ** (cfg.snr_db / 10.0))
            hardened = result["hardened"]
            result["ber"] = harness.simulate_ber(
                lambda x: deep.classify(hardened, x), clean, self.BER_TRIALS,
                seed=_child_seed(cfg.seed, 7))
            return result
        return harness.train_deep_estimator(scenario, case.bits,
                                            channels=cfg.channels,
                                            settings=cfg.train, seed=cfg.seed)

    def steps(self):
        return [Step(case.label, 1, lambda case=case: self._train(case),
                     lambda result, ctx, case=case: [self._check(case, result)])
                for case in self.cases]

    def _check(self, case, result):
        history = result["history"]
        problems = []
        if not all(math.isfinite(v) for v in history):
            problems.append(f"non-finite training loss: {history}")
        digest = repr(history)
        if "ber" in result:
            row = result["ber"]
            digest += "\n" + row.csv_line()
            if not row.estimate < 0.5:
                problems.append(f"classifier BER {row.estimate!r} not below 0.5")
        else:
            digest += f"\n{result['test_mse']!r} {result['test_se']!r}"
            if result["test_mse"] < self.floor - SE_TOL * result["test_se"]:
                problems.append(f"test MSE {result['test_mse']!r} below the "
                                f"MMSE floor {self.floor!r}")
        return Outcome(case.label, digest, problems)

    def warmup(self):
        small = harness.TrainSettings(epochs=1, train_size=1024, test_size=256)
        harness.train_deep_estimator(scenarios.dft_pilot_scenario(), 240.0, 40,
                                     small, self._seed)


@dataclass
class DesignCase:
    label: str
    model: linear_task.LinearTaskModel
    channels: int
    levels: int
    scale: float


class Design(Workload):
    """The closed-form designer, hardware projections and bounds, per model."""

    name = "design"
    rate_name = "designs_per_s"
    RANDOM_MODELS = 250

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for idx in range(self.RANDOM_MODELS):
            # acceptance criterion 2's generator
            n = int(rng.integers(3, 31))
            k = int(rng.integers(1, min(n, 8) + 1))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            cov = (q * rng.uniform(0.3, 3.0, n)) @ q.T
            model = linear_task.LinearTaskModel(
                obs_cov=cov, task_matrix=rng.standard_normal((k, n)))
            levels = int(rng.choice([2, 4, 8, 16]))
            p = int(rng.integers(1, k + 3))
            self.cases.append(DesignCase(f"random{idx}", model, p, levels,
                                         _scale(levels)))
        isi = scenarios.isi_scenario()
        dft = scenarios.dft_pilot_scenario()
        cov = scenarios.covariance_scenario()
        self.cases += [DesignCase("isi", isi.model, 8, 16, 4.0),
                       DesignCase("dft_pilot", dft.model, 40, 8, 4.0),
                       DesignCase("covariance", cov.lifted.model,
                                  cov.lifted.model.k, 4, 3.0)]
        # 20 microstrips of 3 elements carry the 20 x 60 complex dft_pilot combiner
        self.lorentzian = (DesignCase("dft_pilot/lorentzian", dft.model, 40, 8, 4.0),
                           hardware.LorentzianCombiner(
                               strip_sizes=(3,) * 20, omega=5.0,
                               grid=hardware.ParameterGrid.regular(
                                   (0.5, 3.0), (0.5, 3.0), (4.0, 10.0), count=16)))
        self.items_per_pass = len(self.cases) + 1

    @staticmethod
    def _design_set(case):
        m = case.model
        des = linear_task.design(m, case.channels, case.levels, case.scale)
        direct = linear_task.excess_mse(des.analog, m, des.quantizer.support,
                                        case.levels)
        con = hardware.constrained_design(m, hardware.PhaseOnly(), case.channels,
                                          case.levels, case.scale)
        spectrum = np.clip(np.linalg.eigvalsh(m.estimate_covariance())[::-1], 0.0, None)
        bound = bounds.indirect_drf(bounds.SpectrumBound(
            spectrum, m.mmse_floor, case.channels * math.log2(case.levels)))
        return des, direct, con, bound

    def _lorentzian(self):
        case, constraint = self.lorentzian
        base = linear_task.design(case.model, case.channels, case.levels, case.scale)
        con = hardware.constrained_design(case.model, constraint, case.channels,
                                          case.levels, case.scale)
        return base, con

    def steps(self):
        out = [Step(case.label, 1, lambda case=case: self._design_set(case),
                    lambda result, ctx, case=case: [self._check(case, result)])
               for case in self.cases]
        out.append(Step(self.lorentzian[0].label, 1, self._lorentzian,
                        lambda result, ctx: [self._check_lorentzian(result)]))
        return out

    def _check(self, case, result):
        des, direct, con, bound = result
        m = case.model
        problems = []
        gap = abs(des.predicted_excess_mse - direct) / direct
        if not gap < DESIGN_TOL:
            problems.append(f"prediction gap {gap!r}")
        var = np.einsum("ij,jk,ik->i", des.analog, m.obs_cov, des.analog)
        spread = (var.max() - var.min()) / var.max()
        if not spread < DESIGN_TOL:
            problems.append(f"channel variance spread {spread!r}")
        if con.predicted_excess_mse < des.predicted_excess_mse - DOMINANCE_TOL:
            problems.append(f"phase-only excess {con.predicted_excess_mse!r} below "
                            f"unconstrained {des.predicted_excess_mse!r}")
        total = m.mmse_floor + des.predicted_excess_mse
        if not bound <= total:
            problems.append(f"bound {bound!r} above predicted total {total!r}")
        digest = (f"{des.predicted_excess_mse!r} {direct!r} "
                  f"{con.predicted_excess_mse!r} {bound!r}")
        return Outcome(case.label, digest, problems)

    def _check_lorentzian(self, result):
        base, con = result
        problems = []
        if con.predicted_excess_mse < base.predicted_excess_mse - DOMINANCE_TOL:
            problems.append(f"metasurface excess {con.predicted_excess_mse!r} below "
                            f"unconstrained {base.predicted_excess_mse!r}")
        return Outcome(self.lorentzian[0].label, repr(con.predicted_excess_mse),
                       problems)

    def warmup(self):
        self._design_set(self.cases[0])


def run_pass(workload, tracer=None):
    """One pass over the workload's steps: (seconds of calls, outcomes)."""
    ctx, seconds, outcomes = {}, 0.0, []
    for step in workload.steps():
        start = time.perf_counter()
        try:
            try:
                with (contextlib.nullcontext() if tracer is None
                      else tracer.operation(step.label)):
                    result = step.call()
            finally:
                seconds += time.perf_counter() - start
            outcomes += step.check(result, ctx)
        except Exception as exc:  # a failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            outcomes += [Outcome(f"{step.label}#{i}", "raised",
                                 [f"{type(exc).__name__}: {exc}"])
                         for i in range(step.ops)]
    return seconds, outcomes


def failures(passes) -> list:
    """One line per failed operation: a problem, or results differing from
    the first pass."""
    first = {o.label: o.digest for o in passes[0][1]}
    out = []
    for number, (_, outcomes) in enumerate(passes):
        for o in outcomes:
            if o.problems:
                out.append(f"pass {number} {o.label}: {'; '.join(o.problems)}")
            elif o.digest != first.get(o.label):
                out.append(f"pass {number} {o.label}: results differ from pass 0")
    return out


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.label.encode() + b"\n" + outcome.digest.encode() + b"\n")
    return h.hexdigest()


def timed_passes(workload, budget: float, tracer=None) -> list:
    """Whole passes while one more pass, as long as the last, fits in
    `budget` seconds; at least two, so that every run repeats its results."""
    passes, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is None:
            passes.append(run_pass(workload))
        else:
            with tracer.patched():
                passes.append(run_pass(workload, tracer))
        now = time.perf_counter()
        if len(passes) >= 2 and now + (now - began) - start > budget:
            return passes


WORKLOADS = {cls.name: cls for cls in (McLinear, McLifted, DeepTrain, Design)}

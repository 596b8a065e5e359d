"""Data-driven task-based quantizer.

A dense analog network feeds a per-channel soft quantization activation (a
sum of scaled, shifted hyperbolic tangents) whose outer scales and shifts are
trainable while the steepness constants stay fixed; a dense digital network
recovers the task. The whole chain trains end-to-end with plain SGD and
hand-written reverse-mode gradients, and is hardened afterwards into a true
piecewise-constant quantizer per channel. No path may bypass the quantization
activation: the structure is a strict analog -> quantize -> digital chain.

`TrainSettings`, a config's `[train]` section, holds every training knob and
its default; `build_network` and `train` read theirs from it. `loss` and
`backward` share one loss law: MSE, or cross-entropy for a classifier.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .quant import LearnedQuantizerSpec, UniformQuantizerSpec, learned_quantize

__all__ = [
    "DenseLayer",
    "SoftQuantizer",
    "HardQuantizer",
    "Network",
    "TrainSettings",
    "soft_quantize",
    "forward",
    "loss",
    "backward",
    "train",
    "harden",
    "classify",
    "glorot_init",
    "build_network",
]

_ACTIVATIONS = ("identity", "tanh")
_PROB_FLOOR = 1e-30


@dataclass
class DenseLayer:
    weights: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (out, in) with a matching bias")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")


def _tanh_terms(z, outer, shifts, steepness):
    """tanh(steepness * z - shifts) of a (batch, channels) input in one fresh
    channel-major (channels, levels - 1, batch) buffer, and its outer-weighted
    sum, (batch, channels): two batched BLAS products, the first of
    [steepness | -shifts] with [z^T ; 1]. Every soft-quantizer evaluation goes
    through here, so the forward pass and `backward` agree bit for bit.
    """
    aug = np.ones((outer.shape[0], 2, z.shape[0]))
    aug[:, 0] = z.T
    t = np.matmul(np.stack([steepness, -shifts], axis=-1), aug)
    np.tanh(t, out=t)
    return t, np.matmul(outer[:, None, :], t)[:, 0].T


def soft_quantize(z, outer, shifts, steepness):
    """Differentiable quantizer: sum_i outer_i * tanh(steepness_i * z - shifts_i),
    z (..., channels) against (channels, levels - 1) terms, or any z against 1-D."""
    z = np.asarray(z, dtype=float)
    outer, shifts, steepness = (np.atleast_2d(np.asarray(a, dtype=float))
                                for a in (outer, shifts, steepness))
    q = _tanh_terms(z.reshape(-1, outer.shape[0]), outer, shifts, steepness)[1]
    return q.reshape(z.shape)


@dataclass
class SoftQuantizer:
    """Per-channel soft quantization activation.

    outer and shifts are (channels, levels - 1) trainable arrays; steepness is
    the same shape but fixed, since it only controls how closely the smooth
    activation tracks a step map, not the quantization rule itself.
    """

    outer: np.ndarray
    shifts: np.ndarray
    steepness: np.ndarray

    def __post_init__(self):
        self.outer = np.atleast_2d(np.asarray(self.outer, dtype=float))
        self.shifts = np.atleast_2d(np.asarray(self.shifts, dtype=float))
        self.steepness = np.atleast_2d(np.asarray(self.steepness, dtype=float))
        if not (self.outer.shape == self.shifts.shape == self.steepness.shape):
            raise ValueError("outer, shifts, steepness must share one shape")
        if np.any(self.steepness <= 0):
            raise ValueError("steepness constants must be positive")

    @property
    def channels(self) -> int:
        return self.outer.shape[0]

    def apply(self, z: np.ndarray) -> np.ndarray:
        return soft_quantize(z, self.outer, self.shifts, self.steepness)


@dataclass
class HardQuantizer:
    """Per-channel piecewise-constant quantizer obtained by hardening."""

    channel_specs: tuple

    @property
    def channels(self) -> int:
        return len(self.channel_specs)

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.empty_like(z)
        for j, spec in enumerate(self.channel_specs):
            out[:, j] = learned_quantize(z[:, j], spec)
        return out


@dataclass
class Network:
    """Strict analog -> quantizer -> digital chain with an estimation or
    classification head (softmax over the last digital layer's outputs)."""

    analog: list
    quantizer: object
    digital: list
    head: str = "estimation"

    def __post_init__(self):
        if self.head not in ("estimation", "classification"):
            raise ValueError("head must be 'estimation' or 'classification'")
        self.validate()

    def validate(self):
        """Check the layer chain: dimensions must thread through the quantizer."""
        if not self.analog or not self.digital:
            raise ValueError("need at least one analog and one digital layer")
        width = self.analog[0].weights.shape[1]
        for layer in self.analog:
            if layer.weights.shape[1] != width:
                raise ValueError("analog layer widths do not chain")
            width = layer.weights.shape[0]
        if width != self.quantizer.channels:
            raise ValueError(
                f"analog output width {width} does not match the "
                f"{self.quantizer.channels}-channel quantizer")
        for layer in self.digital:
            if layer.weights.shape[1] != width:
                raise ValueError("digital layer widths do not chain")
            width = layer.weights.shape[0]
        return True

    @property
    def input_dim(self) -> int:
        return self.analog[0].weights.shape[1]

    def parameters(self) -> list:
        """The live trainable arrays in forward order: each analog layer's
        weights and bias, the soft quantizer's outer and shifts, then each
        digital layer's weights and bias. `backward` aligns its gradients
        with this list; the fixed steepness constants are not in it."""
        return [*(a for layer in self.analog for a in (layer.weights, layer.bias)),
                self.quantizer.outer, self.quantizer.shifts,
                *(a for layer in self.digital for a in (layer.weights, layer.bias))]


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _dense_forward(layers, x, cache=None):
    for layer in layers:
        pre = x @ layer.weights.T + layer.bias
        out = np.tanh(pre) if layer.activation == "tanh" else pre
        if cache is not None:
            cache.append((x, out))
        x = out
    return x


def _dense_backward(layers, cache, upstream):
    """(dW, db) per layer of `layers` in order, and the gradient at the
    first layer's input, from the `cache` that `_dense_forward` filled."""
    grads = []
    for layer, (inp, out) in zip(reversed(layers), reversed(cache)):
        if layer.activation == "tanh":
            upstream = upstream * (1.0 - out ** 2)
        grads[:0] = [upstream.T @ inp, upstream.sum(axis=0)]
        upstream = upstream @ layer.weights
    return grads, upstream


def _digital_output(net: Network, x) -> np.ndarray:
    """Last digital layer's output: task estimates, or class logits."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.input_dim:
        raise ValueError(f"input dimension {x.shape[1]} does not match "
                         f"network input {net.input_dim}")
    z = _dense_forward(net.analog, x)
    return _dense_forward(net.digital, net.quantizer.apply(z))


def forward(net: Network, x) -> np.ndarray:
    """Network output: task estimates, or class probabilities summing to one."""
    out = _digital_output(net, x)
    return _softmax(out) if net.head == "classification" else out


def _loss_and_grad(net: Network, out, targets):
    """Batch MSE, or mean cross-entropy of softmax(out) against integer
    labels, and its gradient with respect to the last digital output `out`."""
    batch = out.shape[0]
    if net.head == "estimation":
        diff = out - np.atleast_2d(np.asarray(targets, dtype=float))
        return float((diff ** 2).sum(axis=1).mean()), 2.0 * diff / batch
    labels = np.asarray(targets, dtype=int)
    grad = _softmax(out)
    picked = grad[np.arange(batch), labels]
    value = float(-np.log(np.maximum(picked, _PROB_FLOOR)).mean())
    grad[np.arange(batch), labels] -= 1.0
    grad /= batch
    return value, grad


def loss(net: Network, x, targets) -> float:
    """Mean squared error over the batch, or mean cross-entropy for labels."""
    return _loss_and_grad(net, _digital_output(net, x), targets)[0]


def backward(net: Network, x, targets):
    """Loss and exact reverse-mode gradients of every trainable parameter, as
    a list aligned with `net.parameters()`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    analog_cache = []
    z = _dense_forward(net.analog, x, analog_cache)
    qz = net.quantizer
    # t is the one (channels, levels - 1, batch) buffer; it later holds sech^2
    t, q = _tanh_terms(z, qz.outer, qz.shifts, qz.steepness)
    digital_cache = []
    out = _dense_forward(net.digital, q, digital_cache)

    value, grad = _loss_and_grad(net, out, targets)
    digital_grads, dq = _dense_backward(net.digital, digital_cache, grad)
    dq_col = dq.T[:, :, None]
    d_outer = np.matmul(t, dq_col)[:, :, 0]
    t *= t
    sech2 = np.subtract(1.0, t, out=t)
    d_shifts = -qz.outer * np.matmul(sech2, dq_col)[:, :, 0]
    dz = dq * np.matmul((qz.outer * qz.steepness)[:, None, :], sech2)[:, 0].T
    analog_grads, _ = _dense_backward(net.analog, analog_cache, dz)
    return value, [*analog_grads, d_outer, d_shifts, *digital_grads]


@dataclass
class TrainSettings:
    """Every deep-quantizer knob, with its default; the `[train]` section."""

    epochs: int = 30
    learning_rate: float = 0.01
    batch_size: int = 128
    train_size: int = 2 ** 15
    test_size: int = 2 ** 10
    hidden_analog: tuple = ()
    hidden_digital: tuple = ()
    support_scale: float = 4.0
    steepness: float = 50.0

    def __post_init__(self):
        for key in ("learning_rate", "support_scale", "steepness"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"[train] {key}: must be finite and positive")
        for key in ("epochs", "batch_size", "train_size", "test_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[train] {key}: must be >= 1")
        for key in ("hidden_analog", "hidden_digital"):
            widths = getattr(self, key)
            if not all(float(w).is_integer() and w >= 1 for w in widths):
                raise ConfigError(f"[train] {key}: widths must be whole "
                                  f"numbers >= 1")
            setattr(self, key, tuple(int(w) for w in widths))


def train(net: Network, x, targets, settings: TrainSettings, seed: int) -> list:
    """Plain SGD over shuffled mini-batches, with the epochs, learning rate
    and batch size of `settings`; deterministic for a fixed seed.

    Returns the per-epoch mean training loss. Aborts if the loss leaves the
    finite range.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    count, batch = x.shape[0], settings.batch_size
    if count < batch:
        raise ValueError(f"dataset of {count} samples is smaller than one batch")
    targets = np.asarray(targets)
    rng = np.random.default_rng(seed)
    lr = settings.learning_rate
    params = net.parameters()
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(settings.epochs):
            order = rng.permutation(count)
            epoch_losses = []
            for start in range(0, count, batch):
                pick = order[start:start + batch]
                value, grads = backward(net, x[pick], targets[pick])
                if not np.isfinite(value):
                    raise TrainingDiverged(f"loss became {value} at epoch "
                                           f"{epoch}, step {start // batch}")
                epoch_losses.append(value)
                for p, g in zip(params, grads):
                    g *= lr          # the gradient arrays are this step's own
                    p -= g
            history.append(float(np.mean(epoch_losses)))
    return history


def harden(net: Network) -> Network:
    """Replace the soft activation with the step map it approximates.

    Per channel the thresholds are shifts / steepness (sorted); crossing the
    j-th threshold adds twice its outer scale, starting from minus the sum of
    all scales. Thresholds closer than 1e-9 merge and their level jumps add.
    """
    qz = net.quantizer
    if not isinstance(qz, SoftQuantizer):
        raise ValueError("network is already hardened")
    specs = []
    for ch in range(qz.channels):
        raw_t = qz.shifts[ch] / qz.steepness[ch]
        order = np.argsort(raw_t, kind="stable")
        t_sorted = raw_t[order]
        a_sorted = qz.outer[ch][order]
        thresholds = [t_sorted[0]]
        jumps = [2.0 * a_sorted[0]]
        for tj, aj in zip(t_sorted[1:], a_sorted[1:]):
            if tj - thresholds[-1] < 1e-9:
                jumps[-1] += 2.0 * aj
            else:
                thresholds.append(tj)
                jumps.append(2.0 * aj)
        levels = np.concatenate([[-qz.outer[ch].sum()],
                                 -qz.outer[ch].sum() + np.cumsum(jumps)])
        specs.append(LearnedQuantizerSpec(np.asarray(thresholds), levels))
    hard = HardQuantizer(tuple(specs))
    return Network(analog=copy.deepcopy(net.analog), quantizer=hard,
                   digital=copy.deepcopy(net.digital), head=net.head)


def classify(net: Network, x) -> np.ndarray:
    """Most probable class per input; ties resolve to the lowest index."""
    if net.head != "classification":
        raise ValueError("classify requires a classification head")
    probs = forward(net, x)
    return np.argmax(probs, axis=1)


def glorot_init(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def _uniform_soft_quantizer(channels: int, levels: int, support: float,
                            steepness: float) -> SoftQuantizer:
    """Soft activation matching a mid-rise uniform quantizer at initialization.

    Steepness is specified on the unit-scaled range: the tanh transitions span
    about 2/steepness of the (-1, 1) interval regardless of support.
    """
    spec = UniformQuantizerSpec(levels=levels, support=support)
    interior = -support + spec.spacing * np.arange(1, levels)
    c = steepness / support
    outer = np.full((channels, levels - 1), spec.spacing / 2.0)
    steep = np.full((channels, levels - 1), c)
    shifts = np.tile(interior * c, (channels, 1))
    return SoftQuantizer(outer=outer, shifts=shifts, steepness=steep)


def _build_dense(rng, dims):
    """Dense layers through the widths `dims`: tanh, then identity last."""
    return [DenseLayer(glorot_init(rng, d_out, d_in), np.zeros(d_out),
                       "identity" if i == len(dims) - 2 else "tanh")
            for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))]


def build_network(rng: np.random.Generator, input_dim: int, channels: int,
                  outputs: int, levels: int, x_calib, settings: TrainSettings,
                  head: str = "estimation") -> Network:
    """Network with `outputs` estimates or class logits (`head`), its hidden
    widths from `settings` and its quantizer support `settings.support_scale`
    times the largest analog output std on the sample data `x_calib`."""
    analog = _build_dense(rng, [input_dim, *settings.hidden_analog, channels])
    z = _dense_forward(analog, np.atleast_2d(x_calib))
    support = float(settings.support_scale * z.std(axis=0).max())
    quant = _uniform_soft_quantizer(channels, levels, support, settings.steepness)
    digital = _build_dense(rng, [channels, *settings.hidden_digital, outputs])
    return Network(analog=analog, quantizer=quant, digital=digital, head=head)

"""Versioned binary files for designs and trained networks.

Both formats open with the magic bytes TBQ1 and a record-kind byte, followed
by a dimension header and row-major little-endian 64-bit floats.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .deep import DenseLayer, Network, SoftQuantizer
from .errors import ConfigError
from .linear_task import QuantizerDesign
from .quant import UniformQuantizerSpec

__all__ = ["save_design", "load_design", "save_model", "load_model"]

MAGIC = b"TBQ1"
_KIND_DESIGN = 1
_KIND_MODEL = 2
_ACT_CODES = {"identity": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_HEAD_CODES = {"estimation": 0, "classification": 1}
_HEAD_NAMES = {v: k for k, v in _HEAD_CODES.items()}
_FLAG_NAMES = {0: False, 1: True}


def _write_array(fh, arr):
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Reader:
    """Cursor over one record file after its magic and kind byte; every
    malformed read raises ConfigError."""

    def __init__(self, path, expected_kind: int):
        with open(path, "rb") as fh:
            self._data = fh.read()
        magic = self._data[:len(MAGIC)]
        if magic != MAGIC:
            raise ConfigError(f"bad magic bytes {magic!r}, expected {MAGIC!r}")
        self._pos = len(MAGIC)
        kind = self.unpack("<B")[0]
        if kind != expected_kind:
            raise ConfigError(f"record kind {kind} does not match expected "
                              f"{expected_kind}")

    def take(self, size: int) -> bytes:
        if size > len(self._data) - self._pos:
            raise ConfigError(f"file truncated at byte {len(self._data)}: "
                              f"{size} more bytes expected at {self._pos}")
        chunk = self._data[self._pos:self._pos + size]
        self._pos += size
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def code(self, names: dict, what: str):
        value = self.unpack("<B")[0]
        if value not in names:
            raise ConfigError(f"unknown {what} code {value}")
        return names[value]

    def array(self, shape) -> np.ndarray:
        values = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        if not np.all(np.isfinite(values)):
            raise ConfigError("non-finite value in float data")
        return values.reshape(shape).copy()

    def end(self):
        if self._pos != len(self._data):
            raise ConfigError(f"{len(self._data) - self._pos} trailing bytes "
                              f"after the record")


def save_design(path, design: QuantizerDesign):
    a, b = design.analog, design.digital
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", _KIND_DESIGN))
        fh.write(struct.pack("<IIIIB", a.shape[0], a.shape[1], b.shape[0],
                             design.quantizer.levels,
                             1 if design.quantizer.dithered else 0))
        fh.write(struct.pack("<ddd", design.quantizer.support,
                             design.predicted_excess_mse, design.waterline))
        fh.write(struct.pack("<I", design.singular_values.size))
        _write_array(fh, a)
        _write_array(fh, b)
        _write_array(fh, design.singular_values)


def load_design(path) -> QuantizerDesign:
    reader = _Reader(path, _KIND_DESIGN)
    channels, n, k, levels = reader.unpack("<IIII")
    dithered = reader.code(_FLAG_NAMES, "dither flag")
    support, predicted, waterline = reader.unpack("<ddd")
    n_sing = reader.unpack("<I")[0]
    analog = reader.array((channels, n))
    digital = reader.array((k, channels))
    sing = reader.array((n_sing,))
    reader.end()
    try:
        spec = UniformQuantizerSpec(levels=levels, support=support,
                                    dithered=dithered)
        return QuantizerDesign(analog=analog, quantizer=spec, digital=digital,
                               predicted_excess_mse=predicted,
                               singular_values=sing, waterline=waterline)
    except ValueError as exc:
        raise ConfigError(f"invalid design record: {exc}") from exc


def _write_layers(fh, layers):
    fh.write(struct.pack("<I", len(layers)))
    for layer in layers:
        out_dim, in_dim = layer.weights.shape
        fh.write(struct.pack("<IIB", out_dim, in_dim, _ACT_CODES[layer.activation]))
    for layer in layers:
        _write_array(fh, layer.weights)
        _write_array(fh, layer.bias)


def _read_layers(reader):
    count = reader.unpack("<I")[0]
    shapes = [reader.unpack("<II") + (reader.code(_ACT_NAMES, "activation"),)
              for _ in range(count)]
    return [DenseLayer(weights=reader.array((out_dim, in_dim)),
                       bias=reader.array((out_dim,)), activation=act)
            for out_dim, in_dim, act in shapes]


def save_model(path, net: Network):
    """Serialize a soft-quantizer network (training-time form)."""
    if not isinstance(net.quantizer, SoftQuantizer):
        raise ConfigError("only soft-quantizer networks serialize; "
                          "harden after loading instead")
    qz = net.quantizer
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", _KIND_MODEL))
        fh.write(struct.pack("<B", _HEAD_CODES[net.head]))
        fh.write(struct.pack("<II", qz.outer.shape[0], qz.outer.shape[1]))
        _write_layers(fh, net.analog)
        _write_array(fh, qz.outer)
        _write_array(fh, qz.shifts)
        _write_array(fh, qz.steepness)
        _write_layers(fh, net.digital)


def load_model(path) -> Network:
    reader = _Reader(path, _KIND_MODEL)
    head = reader.code(_HEAD_NAMES, "head")
    channels, terms = reader.unpack("<II")
    try:
        analog = _read_layers(reader)
        outer = reader.array((channels, terms))
        shifts = reader.array((channels, terms))
        steepness = reader.array((channels, terms))
        digital = _read_layers(reader)
        reader.end()
        quant = SoftQuantizer(outer=outer, shifts=shifts, steepness=steepness)
        return Network(analog=analog, quantizer=quant, digital=digital, head=head)
    except ValueError as exc:
        raise ConfigError(f"invalid model record: {exc}") from exc

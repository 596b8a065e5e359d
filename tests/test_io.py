import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskquant import cli, deep, io
from taskquant.errors import ConfigError
from taskquant.linear_task import LinearTaskModel, design


def _design_bytes(path):
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    model = LinearTaskModel(obs_cov=(q * rng.uniform(0.5, 2.0, 6)) @ q.T,
                            task_matrix=rng.standard_normal((2, 6)))
    io.save_design(path, design(model, 2, 4))
    return path.read_bytes()


def _model_bytes(path):
    rng = np.random.default_rng(4)
    net = deep.build_network(rng, 5, 2, 2, 4, rng.standard_normal((16, 5)),
                             deep.TrainSettings(hidden_analog=(3,)))
    io.save_model(path, net)
    return path.read_bytes()


LOADERS = {"design": (_design_bytes, io.load_design),
           "model": (_model_bytes, io.load_model)}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_truncation_is_a_config_error(kind, tmp_path):
    make, load = LOADERS[kind]
    valid = make(tmp_path / "valid.tbq")
    load(tmp_path / "valid.tbq")
    path = tmp_path / "cut.tbq"
    for size in range(len(valid)):
        path.write_bytes(valid[:size])
        with pytest.raises(ConfigError):
            load(path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_trailing_bytes_are_rejected(kind, tmp_path):
    make, load = LOADERS[kind]
    path = tmp_path / "long.tbq"
    path.write_bytes(make(path) + b"\x00")
    with pytest.raises(ConfigError, match="trailing"):
        load(path)


def test_unknown_codes_are_rejected(tmp_path):
    path = tmp_path / "model.tbq"
    valid = _model_bytes(path)
    path.write_bytes(valid[:5] + b"\x07" + valid[6:])      # head code
    with pytest.raises(ConfigError, match="head code 7"):
        io.load_model(path)
    valid = _design_bytes(path)
    path.write_bytes(valid[:21] + b"\x02" + valid[22:])    # dither flag
    with pytest.raises(ConfigError, match="dither flag code 2"):
        io.load_design(path)


def test_non_finite_floats_are_rejected(tmp_path):
    path = tmp_path / "design.tbq"
    valid = _design_bytes(path)
    analog_at = 4 + 1 + 17 + 24 + 4
    path.write_bytes(valid[:analog_at] + struct.pack("<d", float("nan"))
                     + valid[analog_at + 8:])
    with pytest.raises(ConfigError, match="non-finite"):
        io.load_design(path)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tbq") / "arbitrary.tbq"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_after_magic_are_config_errors(scratch, body):
    scratch.write_bytes(io.MAGIC + body)
    for load in (io.load_design, io.load_model):
        with pytest.raises(ConfigError):
            load(scratch)


@pytest.mark.parametrize("empty", ["channels", "terms"])
def test_degenerate_soft_quantizers_are_rejected(tmp_path, empty):
    # a record with no quantizer channel, or no tanh term per channel
    rng = np.random.default_rng(4)
    net = deep.build_network(rng, 5, 2, 2, 4, rng.standard_normal((16, 5)),
                             deep.TrainSettings())
    qz = net.quantizer
    cut = np.s_[:0] if empty == "channels" else np.s_[:, :0]
    qz.outer, qz.shifts, qz.steepness = qz.outer[cut], qz.shifts[cut], qz.steepness[cut]
    if empty == "channels":     # analog and digital layers thread through 0
        net.analog = [deep.DenseLayer(np.zeros((0, 5)), np.zeros(0))]
        net.digital = [deep.DenseLayer(np.zeros((2, 0)), np.zeros(2))]
    path = tmp_path / "degenerate.tbq"
    io.save_model(path, net)
    with pytest.raises(ConfigError, match="at least one channel and term"):
        io.load_model(path)
    assert cli.main(["harden", "--model", str(path)]) == 1

import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from taskquant import cli, harness, scenarios
from taskquant import io as tbq
from taskquant.errors import ConfigError
from taskquant.hardware import PhaseOnly, constrained_design

ISI_CFG = """
[scenario]
name = isi

[design]
channels = 8
levels = 16
support_scale = 4.0

[sweep]
axis = rate_bits
grid = 8 16
method = task_based
trials = 400
seed = 7
dither = true
"""


# partitions of isi's 120 antennas over its 8 configured ADCs: a valid one,
# an owner outside 0..7, ADC 7 idle, and ADC 3 idle
OWNERS_MOD_8 = " ".join(str(j % 8) for j in range(120))
OWNERS_MOD_9 = " ".join(str(j % 9) for j in range(120))
OWNERS_MOD_7 = " ".join(str(j % 7) for j in range(120))
OWNERS_NO_3 = " ".join(str((0, 1, 2, 4, 5, 6, 7)[j % 7]) for j in range(120))

# edits that make ISI_CFG a bpsk deep config on the default rate axis:
# `train` trains its classifier, and `simulate` has no estimation scenario
BPSK_DEEP_RATE = {"name = isi": "name = bpsk\nsnr_db = 10", "channels = 8\n": "",
                  "method = task_based": "method = deep",
                  "dither = true": "rate_bits = 12"}

# edits that make ISI_CFG a one-point bpsk deep SNR sweep with `levels` but
# neither `channels` nor `rate_bits`
BPSK_DEEP_LEVELS = {"name = isi": "name = bpsk\nsnr_db = 10", "channels = 8\n": "",
                    "axis = rate_bits": "axis = snr_db", "grid = 8 16": "grid = 10",
                    "method = task_based": "method = deep",
                    "dither = true": "[train]\nepochs = 1\ntrain_size = 256"}


@pytest.fixture
def isi_config(tmp_path):
    path = tmp_path / "isi.cfg"
    path.write_text(ISI_CFG)
    return path


def test_sweep_writes_expected_csv(isi_config, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(isi_config),
                     "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,method,metric,estimate,std_error,trials"
    assert len(lines) == 1 + 4       # 2 method rows + 2 bound rows
    fields = lines[1].split(",")
    assert fields[1] == "task_based"
    float(fields[3]), float(fields[4])


def test_sweep_repeat_is_byte_identical(isi_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(isi_config), "--output", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(isi_config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_design_and_simulate(isi_config, tmp_path, capsys):
    out = tmp_path / "design.tbq"
    assert cli.main(["design", "--config", str(isi_config),
                     "--output", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(isi_config),
                     "--trials", "50"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "axis,method,metric,estimate,std_error,trials"


def test_simulate_output_goes_to_the_file_alone(isi_config, tmp_path, capsys):
    # like sweep and bound: the rows go to the file, stdout only says so
    out = tmp_path / "row.csv"
    assert cli.main(["simulate", "--config", str(isi_config), "--trials", "50",
                     "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"1 rows written to {out}\n"
    cfg = dataclasses.replace(harness.load_config(isi_config), trials=50)
    expected = f"{harness.CSV_HEADER}\n{harness.simulate(cfg).csv_line()}\n"
    assert out.read_bytes() == expected.encode()


# edits to ISI_CFG for each method and scenario whose design `design` saves
SAVED_DESIGNS = {
    "isi-task_based": {},
    "isi-phase_only": {"method = task_based": "method = constrained",
                       "support_scale = 4.0": "support_scale = 4.0\n"
                                              "constraint = phase_only"},
    "isi-partial": {"method = task_based": "method = constrained",
                    "support_scale = 4.0": "support_scale = 4.0\nconstraint = "
                                           f"partial\npartition = {OWNERS_MOD_8}"},
    "isi-mmse_then_quantize": {"method = task_based": "method = mmse_then_quantize"},
    "isi-digital_only": {"method = task_based": "method = digital_only"},
    "dft_pilot-task_based": {"name = isi": "name = dft_pilot"},
    "dft_pilot-mmse_then_quantize": {"name = isi": "name = dft_pilot",
                                     "method = task_based":
                                         "method = mmse_then_quantize"},
    "dft_pilot-digital_only": {"name = isi": "name = dft_pilot",
                               "method = task_based": "method = digital_only"},
    "covariance-task_based": {"name = isi": "name = covariance"},
    "covariance-support_scale_range": {
        "name = isi": "name = covariance", "grid = 8 16": "grid = 8 24",
        "support_scale = 4.0": "support_scale_range = 2 6"},
}


@pytest.mark.parametrize("dither", [True, False])
@pytest.mark.parametrize("case", sorted(SAVED_DESIGNS))
def test_design_record_carries_the_config_dither(tmp_path, capsys, case, dither):
    # the TBQ1 record holds the design the `simulate` row runs, dither flag and
    # matrix layout included, so re-simulating the saved design gives the row
    # byte for byte
    text = ISI_CFG.replace("levels = 16", "levels = 4").replace(
        "trials = 400", "trials = 20000").replace(
        "dither = true", f"dither = {str(dither).lower()}")
    for old, new in SAVED_DESIGNS[case].items():
        text = text.replace(old, new)
    path, out = tmp_path / "saved.cfg", tmp_path / "design.tbq"
    path.write_text(text)
    assert cli.main(["design", "--config", str(path),
                     "--output", str(out)]) == 0
    assert out.read_bytes()[21] == int(dither)       # the dither flag
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    cfg = harness.load_config(path)
    again = harness.simulate_mse(tbq.load_design(out), harness.build_scenario(cfg),
                                 20000, harness.derive_seed(7, cfg.method, 0))
    assert row[3:5] == [repr(again.estimate), repr(again.std_error)]


def test_bound_command(isi_config, tmp_path):
    out = tmp_path / "bound.csv"
    assert cli.main(["bound", "--config", str(isi_config),
                     "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(line.split(",")[1] == "bound" for line in lines[1:])
    # bound values decrease with rate
    vals = [float(line.split(",")[3]) for line in lines[1:]]
    assert vals[0] >= vals[1]


def test_missing_config_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["sweep", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err


def test_unknown_flag_exits_one(capsys):
    assert cli.main(["sweep", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_method_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(ISI_CFG.replace("method = task_based", "method = wizardry"))
    assert cli.main(["sweep", "--config", str(path)]) == 1


def test_train_and_harden_round_trip(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("""
[scenario]
name = bpsk
snr_db = 10

[sweep]
rate_bits = 12
seed = 1

[train]
epochs = 3
learning_rate = 0.05
batch_size = 64
train_size = 1000
hidden_analog = 8
hidden_digital = 12
support_scale = 3.0
""")
    model_path = tmp_path / "model.tbq"
    assert cli.main(["train", "--config", str(cfg),
                     "--output", str(model_path)]) == 0
    assert model_path.exists()
    spec_path = tmp_path / "quantizers.json"
    assert cli.main(["harden", "--model", str(model_path),
                     "--output", str(spec_path)]) == 0
    dump = json.loads(spec_path.read_text())
    assert len(dump["channels"]) == 4          # floor(k * rate) quantizers
    first = dump["channels"][0]
    assert len(first["levels"]) == len(first["thresholds"]) + 1
    thresholds = np.asarray(first["thresholds"])
    assert np.all(np.diff(thresholds) > 0)


def test_train_runs_the_estimator_a_covariance_sweep_trains(tmp_path, capsys):
    # the quadratic scenario: a deep sweep trains and scores there, so must train
    path = tmp_path / "cov.cfg"
    path.write_text("""
[scenario]
name = covariance

[sweep]
method = deep
grid = 24
rate_bits = 24
trials = 200
seed = 3

[train]
epochs = 1
train_size = 256
test_size = 128
""")
    assert cli.main(["sweep", "--config", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("test_mse=")
    assert out[1].startswith("channels=6 levels=16 ")   # one ADC per task entry


def test_harden_requires_model(capsys):
    assert cli.main(["harden"]) == 1


def test_numerical_failure_exits_two(isi_config, monkeypatch, capsys):
    from taskquant.errors import NumericalError

    def boom(cfg):
        raise NumericalError("synthetic blow-up", condition_number=1e18)

    monkeypatch.setattr(cli.harness, "sweep", boom)
    assert cli.main(["sweep", "--config", str(isi_config)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_sweep_stdout_is_a_valid_csv(isi_config, capsys):
    for command, lines, note in (("sweep", 1 + 4, "task_based @ 8"),
                                 ("simulate", 1 + 1, "# wall_time_ms=")):
        assert cli.main([command, "--config", str(isi_config)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(harness.CSV_HEADER + "\n")
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == lines
        assert all(len(row) == 6 for row in rows)
        assert note in captured.err


def test_bound_rows_match_sweep_bound_rows(isi_config, tmp_path):
    bound, swept = tmp_path / "bound.csv", tmp_path / "sweep.csv"
    assert cli.main(["bound", "--config", str(isi_config),
                     "--output", str(bound)]) == 0
    assert cli.main(["sweep", "--config", str(isi_config),
                     "--output", str(swept)]) == 0
    sweep_bounds = [line for line in swept.read_text().splitlines()
                    if line.split(",")[1] == "bound"]
    expected = "".join(f"{line}\n" for line in [harness.CSV_HEADER, *sweep_bounds])
    assert len(sweep_bounds) == 2
    assert bound.read_bytes() == expected.encode()


@pytest.mark.parametrize("command, edits, named", [
    ("sweep", {"grid = 8 16": "grid = inf"}, "grid"),
    ("sweep", {"grid = 8 16": "grid = 8 1e6"}, "bits"),
    ("sweep", {"grid = 8 16": "grid = nan"}, "grid"),
    ("sweep", {"channels = 8": "channels = 0"}, "channels"),
    ("sweep", {"support_scale = 4.0": "support_scale = -4"}, "support_scale"),
    ("sweep", {"support_scale = 4.0": "support_scale_range = 2 inf"},
     "[design] support_scale_range"),
    ("simulate", {"levels = 16": "levels = 0"}, "levels"),
    ("sweep --trials 0", {}, "trials"),
    ("sweep", {"name = isi": "name = isi\ncsi_fraction = -0.5"}, "csi_fraction"),
    ("sweep", {"name = isi": "name = isi\ncsi_fraction = nan"}, "csi_fraction"),
    ("train", {"name = isi": "name = isi\ncsi_fraction = 0.2\ncsi_seed = -4"},
     "[scenario] csi_seed"),
    # 10 ** (4000 / 10) overflows a float; 10 ** (-4000 / 10) rounds to zero
    ("sweep", {"name = isi": "name = bpsk\nsnr_db = 4000"}, "[scenario] snr_db"),
    ("sweep", {"name = isi": "name = bpsk\nsnr_db = -4000"}, "[scenario] snr_db"),
    ("simulate", {"name = isi": "name = bpsk\nsnr_db = 4000",
                  "axis = rate_bits": "axis = snr_db"}, "[scenario] snr_db"),
    ("sweep", {"name = isi": "name = bpsk", "axis = rate_bits": "axis = snr_db",
               "grid = 8 16": "grid = 6 4000"}, "[sweep] grid"),
    ("sweep", {"method = task_based": "method = quadratic"}, "method"),
    ("sweep", {"dither = true": "[train]\ntest_size = 0"}, "test_size"),
    ("sweep", {"dither = true": "[train]\ntrain_size = 0"}, "train_size"),
    ("sweep", {"dither = true": "[train]\nepochs = 0"}, "epochs"),
    ("sweep", {"dither = true": "[train]\nbatch_size = -1"}, "batch_size"),
    ("sweep", {"dither = true": "[train]\nlearning_rate = nan"},
     "learning_rate"),
    ("sweep", {"dither = true": "[train]\nlearning_rate = 0"},
     "learning_rate"),
    ("sweep", {"dither = true": "[train]\nhidden_digital = 8 0"},
     "hidden_digital"),
    ("sweep", {"dither = true": "[train]\nhidden_analog = 2.7"},
     "hidden_analog"),
    ("sweep", {"dither = true": "[train]\nsupport_scale = inf"},
     "[train] support_scale"),
    ("sweep", {"dither = true": "[train]\nsteepness = -50"}, "steepness"),
    ("sweep", {"channels = 8": "chanels = 3"}, "[design] chanels"),
    ("sweep", {"[design]": "[desing]"}, "[desing]"),
    ("simulate", {"dither = true": "[simulate]\nrate_bits = 24"}, "[simulate]"),
    ("sweep", {"levels = 16": "constraint = partial\npartition = 0 0.5 1"},
     "[design] partition"),
    ("sweep", {"levels = 16": "constraint = partial\npartition = 0 -1 1"},
     "[design] partition"),
    ("sweep", {"levels = 16": f"constraint = partial\npartition = {OWNERS_MOD_9}",
               "method = task_based": "method = constrained"},
     "[design] partition"),
    ("sweep", {"levels = 16": f"constraint = partial\npartition = {OWNERS_MOD_7}",
               "method = task_based": "method = constrained"},
     "[design] partition"),
    ("sweep", {"levels = 16": f"constraint = partial\npartition = {OWNERS_NO_3}",
               "method = task_based": "method = constrained"},
     "[design] partition"),
    # 6 bits over bpsk's 12 antennas: the detector's ADCs need 1 bit each
    ("sweep", {"name = isi": "name = bpsk", "axis = rate_bits": "axis = snr_db",
               "grid = 8 16": "grid = 6 10", "method = task_based":
               "method = quantized_map", "dither = true": "rate_bits = 6"},
     "fewer than 1 bit per quantizer"),
    ("sweep", {"method = task_based": "method = constrained"},
     "[design] constraint"),
    ("simulate", BPSK_DEEP_RATE, "[sweep] axis"),
    # a std multiple whose margin underflows: the water-fill would divide by 0
    ("sweep", {"support_scale = 4.0": "support_scale = 1e-300"}, "too small"),
    ("sweep", {"support_scale = 4.0": "support_scale = 1e-160"}, "too small"),
    ("sweep", {"support_scale = 4.0": "support_scale = 1e-300",
               "levels = 16": "constraint = phase_only",
               "method = task_based": "method = constrained"}, "too small"),
    ("sweep", {"support_scale = 4.0": "support_scale = 1e-160",
               "levels = 16": "constraint = phase_only",
               "method = task_based": "method = constrained"}, "too small"),
    # a support whose noise variance underflows, on every kind of ADC spec
    ("sweep", {"name = isi": "name = covariance",
               "support_scale = 4.0": "support_scale = 1e-320",
               "method = task_based": "method = digital_only"}, "too small"),
    ("sweep", {"name = isi": "name = covariance",
               "support_scale = 4.0": "support_scale = 1e-320",
               "method = task_based": "method = mmse_then_quantize"}, "too small"),
    ("sweep", {"name = isi": "name = bpsk", "axis = rate_bits": "axis = snr_db",
               "grid = 8 16": "grid = 6 10", "support_scale = 4.0":
               "support_scale = 1e-320", "method = task_based":
               "method = quantized_map"}, "too small"),
    ("sweep", {"method = task_based": "method = deep", "dither = true":
               "[train]\nsupport_scale = 1e-320\ntrain_size = 256"}, "too small"),
    # the deep classifier's default ADC count follows its budget, so `levels`
    # alone sets no budget
    ("sweep", BPSK_DEEP_LEVELS, "[design] channels"),
    ("train", BPSK_DEEP_LEVELS, "[design] channels"),
], ids=["grid-inf", "grid-overflow", "grid-nan", "channels-zero",
        "support-scale-negative", "support-scale-range-inf",
        "simulate-levels-zero", "trials-flag-zero", "csi-fraction-negative",
        "csi-fraction-nan", "csi-seed-negative", "snr-overflow",
        "snr-underflow", "simulate-snr-overflow", "snr-grid-point-overflow",
        "method-quadratic", "test-size-zero", "train-size-zero", "epochs-zero",
        "batch-size-negative", "learning-rate-nan", "learning-rate-zero", "hidden-width-zero",
        "hidden-width-fraction", "train-support-scale-inf", "steepness-negative",
        "unknown-key", "unknown-section", "sweep-and-simulate",
        "partition-fraction", "partition-negative", "partition-owner-8",
        "partition-idle-last-adc", "partition-idle-middle-adc",
        "quantized-map-sub-bit-budget", "constrained-without-constraint",
        "bpsk-deep-on-the-rate-axis", "support-scale-1e-300",
        "support-scale-1e-160", "constrained-support-scale-1e-300",
        "constrained-support-scale-1e-160", "covariance-digital-only-support-1e-320",
        "covariance-mmse-then-quantize-support-1e-320",
        "quantized-map-support-1e-320", "deep-train-support-1e-320",
        "bpsk-deep-levels-without-channels",
        "train-bpsk-deep-levels-without-channels"])
def test_malformed_config_exits_one_with_one_line(tmp_path, capsys, command,
                                                  edits, named):
    text = ISI_CFG
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main([*command.split(), "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error")]
    assert errors == err[-1:]
    assert named in errors[0]


def test_train_on_the_rate_axis_trains_the_bpsk_classifier(tmp_path, capsys):
    text = ISI_CFG
    for old, new in BPSK_DEEP_RATE.items():
        text = text.replace(old, new)
    path = tmp_path / "bpsk.cfg"
    path.write_text(text + "\n[train]\nepochs = 1\ntrain_size = 256\n")
    assert cli.main(["train", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("channels=4 levels=8 ")


@pytest.mark.parametrize("method", ["map", "quantized_map"])
def test_snr_sweep_needs_no_scenario_snr(tmp_path, capsys, method):
    # each SNR point is its own scenario: [scenario] snr_db changes no row
    text = f"""
[scenario]
name = bpsk
csi_fraction = 0.2

[sweep]
axis = snr_db
grid = 6 8
method = {method}
trials = 3000
seed = 4
"""
    rows = []
    for scenario_snr in ("", "snr_db = 10\n"):
        path = tmp_path / "snr.cfg"
        path.write_text(text.replace("name = bpsk\n", "name = bpsk\n" + scenario_snr))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]
    assert len(rows[0].splitlines()) == 1 + 2


def test_infeasible_grid_point_fails_before_any_trial(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(ISI_CFG.replace("grid = 8 16", "grid = 8 1e6"))
    assert cli.main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error")
    assert not any("@ 8" in line for line in err)


def test_infeasible_deep_grid_trains_no_network(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the grid")

    monkeypatch.setattr(harness.deep, "train", no_training)
    cfg = harness.ExperimentConfig(scenario="isi", method="deep", channels=8,
                                   grid=(8.0, 1e6))
    with pytest.raises(ConfigError, match="bits"):
        harness.sweep(cfg)


def test_simulate_runs_the_configured_levels():
    # levels -> total bits -> levels must round-trip on every pair
    scenario = scenarios.isi_scenario()
    short = []
    for channels in range(1, 65):
        for levels in range(2, 257):
            cfg = harness.ExperimentConfig(scenario="isi", channels=channels,
                                           levels=levels)
            bits = harness.point_bits(cfg, scenario)
            if harness.levels_for(bits, channels) != levels:
                short.append((channels, levels))
    assert short == []
    cfg = harness.ExperimentConfig(scenario="isi", channels=8, levels=5)
    des = harness.pipeline(cfg, scenario)[0]
    assert des.quantizer.levels == 5


def test_design_and_simulate_spend_the_same_budget(tmp_path, capsys):
    # rate_bits wins over levels for both: 24 bits on 8 channels is 8 levels
    path = tmp_path / "both.cfg"
    path.write_text(ISI_CFG.replace("dither = true", "rate_bits = 24"))
    assert cli.main(["design", "--config", str(path)]) == 0
    assert " levels=8 " in capsys.readouterr().out
    assert cli.main(["simulate", "--config", str(path), "--trials", "50"]) == 0
    axis = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
    assert harness.levels_for(axis, 8) == 8


def test_design_builds_the_configured_method(tmp_path, capsys):
    # the phase-only design that the sweep row at 24 bits runs, not the
    # unconstrained task_based one (support 1.4771, excess 0.565176)
    text = ISI_CFG.replace("levels = 16", "constraint = phase_only").replace(
        "method = task_based", "method = constrained").replace(
        "dither = true", "rate_bits = 24")
    path = tmp_path / "phase.cfg"
    path.write_text(text)
    assert cli.main(["design", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    want = constrained_design(scenarios.isi_scenario().model, PhaseOnly(), 8, 8,
                              4.0)
    assert f" support={want.quantizer.support:.6g} " in printed
    assert f" predicted_excess_mse={want.predicted_excess_mse:.6g}" in printed
    assert " support=1111.13 " in printed
    assert printed.rstrip().endswith(" predicted_excess_mse=2.87691")


@pytest.mark.parametrize("method, bits, line", [
    ("task_based", 24, "scenario=isi channels=8 levels=8 support=1.4771 "
     "waterline=9.59201 predicted_excess_mse=0.565176"),
    ("mmse_then_quantize", 24, "scenario=isi channels=8 levels=8 "
     "support=3.52021 predicted_excess_mse=0.666328"),
    ("digital_only", 240, "scenario=isi channels=120 levels=4 "
     "support=19.7547 predicted_excess_mse=2.14771"),
    ("constrained", 24, "scenario=isi channels=8 levels=8 support=1111.13 "
     "predicted_excess_mse=2.87691")])
def test_design_prints_a_waterline_only_when_the_design_has_one(
        tmp_path, capsys, method, bits, line):
    # fixed-combiner designs, a projected one too, carry no waterline: the
    # field is left out, and the record holds NaN and no singular values
    text = ISI_CFG.replace("method = task_based", f"method = {method}").replace(
        "dither = true", f"rate_bits = {bits}")
    if method == "constrained":
        text = text.replace("levels = 16", "constraint = phase_only")
    path, out = tmp_path / "waterline.cfg", tmp_path / "design.tbq"
    path.write_text(text)
    assert cli.main(["design", "--config", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"{line}\ndesign written to {out}\n"
    loaded = tbq.load_design(out)
    water_filled = "waterline=" in line
    assert np.isnan(loaded.waterline) != water_filled
    assert (loaded.singular_values.size > 0) == water_filled


@pytest.mark.parametrize("scenario, method", [
    ("isi", "deep"), ("isi", "map"), ("covariance", "digital_only"),
    ("covariance", "mmse_then_quantize")])
def test_design_without_a_combiner_exits_one(tmp_path, capsys, scenario,
                                             method):
    text = ISI_CFG.replace("name = isi", f"name = {scenario}").replace(
        "method = task_based", f"method = {method}")
    path = tmp_path / "nodesign.cfg"
    path.write_text(text)
    out = tmp_path / "design.tbq"
    assert cli.main(["design", "--config", str(path),
                     "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [sweep] method")
    assert method in err[0]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_quantized_map_runs_the_configured_levels(tmp_path, capsys, command):
    # 4 levels on each of bpsk's 12 antennas is the 24-bit row, not the
    # default 12-bit (2-level) one, on a one-point sweep as on `simulate`
    text = """
[scenario]
name = bpsk
snr_db = 4

[design]
levels = 4

[sweep]
axis = snr_db
grid = 4
method = quantized_map
trials = 3000
seed = 5
"""
    path = tmp_path / "levels.cfg"
    printed = []
    default = text.replace("levels = 4", "")
    for config in (text, default.replace("seed = 5", "seed = 5\nrate_bits = 24"),
                   default):
        path.write_text(config)
        assert cli.main([command, "--config", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] != printed[2]


@pytest.mark.parametrize("scenario, channels, levels", [("bpsk", 2, 8),
                                                        ("isi", 8, 16)])
def test_train_runs_the_configured_levels(tmp_path, capsys, scenario, channels,
                                          levels):
    text = ISI_CFG.replace("name = isi", f"name = {scenario}\nsnr_db = 10").replace(
        "channels = 8", f"channels = {channels}").replace(
        "levels = 16", f"levels = {levels}")
    path = tmp_path / "train.cfg"
    path.write_text(text + "\n[train]\nepochs = 1\ntrain_size = 256\n"
                    "test_size = 128\n")
    assert cli.main(["train", "--config", str(path)]) == 0
    assert f"channels={channels} levels={levels} " in capsys.readouterr().out


def test_train_overflowing_support_prints_one_line(tmp_path):
    # pytest records numpy's RuntimeWarning, so only a fresh interpreter
    # shows whether one reaches stderr
    path = tmp_path / "deep.cfg"
    path.write_text(ISI_CFG.replace("method = task_based", "method = deep").replace(
        "dither = true", "[train]\nepochs = 1\ntrain_size = 256\n"
        "support_scale = 1e308"))
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "taskquant", "sweep", "--config", str(path)],
        capture_output=True, text=True, timeout=120, cwd=src)
    assert result.returncode == 1
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "support" in err[0]


def test_bpsk_deep_takes_the_configured_channels(tmp_path, capsys,
                                                 monkeypatch):
    text = """
[scenario]
name = bpsk
snr_db = 10

[design]
channels = 2

[sweep]
axis = snr_db
grid = 10
method = deep
trials = 200
rate_bits = 12

[train]
epochs = 1
train_size = 256
"""
    path = tmp_path / "bpsk.cfg"
    path.write_text(text)
    assert cli.main(["train", "--config", str(path)]) == 0
    assert "channels=2 " in capsys.readouterr().out

    counts = []
    train_and_harden = harness._train_and_harden

    def spy(*args):
        result = train_and_harden(*args)
        counts.append(result["channels"])
        return result

    monkeypatch.setattr(harness, "_train_and_harden", spy)
    for config in (text, text.replace("channels = 2", "")):
        path.write_text(config)
        assert cli.main(["sweep", "--config", str(path)]) == 0
    assert counts == [2, 4]      # unset: floor(k * rate) quantizers


def test_one_point_commands_follow_the_support_scale_schedule(tmp_path,
                                                             capsys):
    # at 24 bits, 3 -> 6.5 over grid 16..32 gives the sweep's std multiple 4.75
    text = ISI_CFG.replace("support_scale = 4.0", "support_scale = 4.0\n"
                           "support_scale_range = 3 6.5")
    text = text.replace("grid = 8 16", "grid = 16 24 32").replace(
        "dither = true", "rate_bits = 24")
    path = tmp_path / "schedule.cfg"
    path.write_text(text)
    assert cli.main(["design", "--config", str(path)]) == 0
    assert " support=1.7877 " in capsys.readouterr().out
    assert cli.main(["simulate", "--config", str(path)]) == 0
    simulated = capsys.readouterr().out.splitlines()[1]
    cfg = harness.load_config(path)
    fixed = dataclasses.replace(cfg, grid=(24.0,), support_scale=4.75,
                                support_scale_range=None)
    assert simulated == harness.simulate(cfg).csv_line()
    assert simulated == harness.sweep(fixed)[0].csv_line()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.cfg"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    cfg = harness.load_config(path)
    assert (cfg.channels, cfg.levels, cfg.trials) == (8, 16, 100000)
    assert cfg.grid == (8.0, 16.0, 24.0, 32.0, 40.0, 48.0)
    assert cfg.train.epochs == 25


def test_percent_in_a_value_is_literal(tmp_path, capsys):
    # values are not interpolated: a lone % is an ordinary character
    out = tmp_path / "100%.csv"
    path = tmp_path / "percent.cfg"
    path.write_text(ISI_CFG + f"output = {out}\n")
    assert harness.load_config(path).output == str(out)
    assert cli.main(["sweep", "--config", str(path), "--trials", "50"]) == 0
    assert out.read_text().startswith("axis,method,metric,")


def test_python_dash_m_runs_the_cli(isi_config):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "taskquant", "sweep", "--config",
         str(isi_config), "--trials", "100"],
        capture_output=True, text=True, timeout=120, cwd=src)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == (
        "axis,method,metric,estimate,std_error,trials")

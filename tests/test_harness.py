import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from taskquant import deep, harness, io, quadratic_task, scenarios
from taskquant.errors import ConfigError
from taskquant.harness import ExperimentConfig
from taskquant.linear_task import design, estimate


def test_result_row_csv_format():
    row = harness.ResultRow(axis=8.0, method="task_based", metric="mse",
                            estimate=1.25, std_error=0.01, trials=100)
    assert row.csv_line() == "8.0,task_based,mse,1.25,0.01,100"


def test_simulate_mse_matches_prediction_and_is_deterministic():
    sc = scenarios.isi_scenario()
    des = design(sc.model, 8, 16)
    row1 = harness.simulate_mse(des, sc, 20000, seed=5)
    row2 = harness.simulate_mse(des, sc, 20000, seed=5)
    assert row1.estimate == row2.estimate
    assert row1.std_error == row2.std_error
    total = sc.model.mmse_floor + des.predicted_excess_mse
    assert row1.estimate == pytest.approx(total, rel=0.03)


@pytest.mark.parametrize("case", ["isi_8x4", "dft_pilot_160", "isi_rank_deficient"])
def test_simulate_mse_agrees_with_full_observation_reference(case):
    # scoring E[s | A x] plus its residual changes no expectation, only the SE
    make, channels, levels, scale = {
        "isi_8x4": (scenarios.isi_scenario, 8, 4, 4.0),
        "dft_pilot_160": (scenarios.dft_pilot_scenario, 40, 16, 4.0),
        "isi_rank_deficient": (scenarios.isi_scenario, 8, 2, 3.0)}[case]
    sc = make()
    des = design(sc.model, channels, levels, scale)
    trials = 20_000

    def reference(rng, count):
        s, x = sc.sampler(rng, count)
        return ((s - estimate(des, x, rng=rng)) ** 2).sum(axis=1)

    ref, ref_se = harness._monte_carlo(reference, trials, seed=6)
    row = harness.simulate_mse(des, sc, trials, seed=5)
    assert abs(row.estimate - ref) <= 3 * np.hypot(row.std_error, ref_se)
    assert row.std_error <= ref_se


def test_simulate_mse_single_trial_has_no_std_error():
    sc = scenarios.isi_scenario()
    des = design(sc.model, 8, 16)
    row = harness.simulate_mse(des, sc, 1, seed=5)
    assert np.isnan(row.std_error)


def test_non_dithered_path_also_works():
    sc = scenarios.isi_scenario()
    des = design(sc.model, 8, 16)
    des = dataclasses.replace(des, quantizer=dataclasses.replace(
        des.quantizer, dithered=False))
    row = harness.simulate_mse(des, sc, 20000, seed=5)
    total = sc.model.mmse_floor + des.predicted_excess_mse
    assert row.estimate == pytest.approx(total, rel=0.10)


# undithered rows at 3000 trials and seed 11, from the code before the
# quantizer spec carried the dither switch
_UNDITHERED_ROWS = {
    ("isi", "task_based", (16.0, 24.0)): [
        "16.0,task_based,mse,4.32215748575923,0.015126568970347405,3000",
        "24.0,task_based,mse,3.2141139539044454,0.002930299346318851,3000"],
    ("isi", "constrained", (16.0, 24.0)): [
        "16.0,constrained,mse,6.012165386205817,0.032069307637046,3000",
        "24.0,constrained,mse,5.203600808502425,0.018707563104340658,3000"],
    ("isi", "mmse_then_quantize", (16.0, 24.0)): [
        "16.0,mmse_then_quantize,mse,4.313292346379601,0.016639022244331732,3000",
        "24.0,mmse_then_quantize,mse,3.315320435601725,0.0036216076415028883,3000"],
    ("isi", "digital_only", (240.0, 360.0)): [
        "240.0,digital_only,mse,5.171066121262881,0.04501135769325293,3000",
        "360.0,digital_only,mse,3.7785235376164215,0.037795694836449255,3000"],
    ("covariance", "task_based", (12.0, 24.0)): [
        "12.0,task_based,mse,0.667474332330057,0.013431807073832302,3000",
        "24.0,task_based,mse,0.0490874849040585,0.0014704079628242936,3000"],
    ("covariance", "mmse_then_quantize", (12.0, 24.0)): [
        "12.0,mmse_then_quantize,mse,8.11543187891544,0.052454171427458375,3000",
        "24.0,mmse_then_quantize,mse,0.3613620792841354,0.002506127538616712,3000"],
    ("covariance", "digital_only", (12.0, 24.0)): [
        "12.0,digital_only,mse,14.06408805676297,0.08857724378228264,3000",
        "24.0,digital_only,mse,1.992665714959421,0.029513528424356467,3000"],
}


@pytest.mark.parametrize("case", sorted(_UNDITHERED_ROWS),
                         ids=lambda case: "-".join(case[:2]))
def test_config_dither_switches_every_quantizer(monkeypatch, case):
    # the config's dither reaches every ADC of every MSE method through its
    # quantizer spec, whichever module makes the call
    scenario, method, grid = case
    calls = {"dithered_quantize": 0, "uniform_quantize": 0}
    for module in [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "taskquant"]:
        for name in calls:
            original = getattr(module, name, None)
            if original is not None:
                monkeypatch.setattr(module, name, _counting(original, calls, name))
    rows = {}
    for dither in (False, True):
        cfg = ExperimentConfig(
            scenario=scenario, method=method, grid=grid, trials=3000, seed=11,
            channels=8 if scenario == "isi" else None, dither=dither,
            constraint="phase_only" if method == "constrained" else None)
        rows[dither] = [r.csv_line().split(",") for r in harness.sweep(cfg)
                        if r.method != "bound"]
        assert calls["uniform_quantize" if dither else "dithered_quantize"] == 0
        assert calls["dithered_quantize" if dither else "uniform_quantize"] > 0
        calls.update(dithered_quantize=0, uniform_quantize=0)
    # the last bits of the isi rows move with the BLAS thread count
    for got, want in zip(rows[False], _UNDITHERED_ROWS[case], strict=True):
        want = want.split(",")
        assert got[:3] + got[5:] == want[:3] + want[5:]
        assert [float(v) for v in got[3:5]] == pytest.approx(
            [float(v) for v in want[3:5]], rel=1e-12, abs=0.0)
    assert rows[True] != rows[False]


def _counting(fn, calls, name):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_stream_separation():
    a = harness.stream(1, "task_based", 0).standard_normal(4)
    b = harness.stream(1, "task_based", 0).standard_normal(4)
    c = harness.stream(1, "mmse_then_quantize", 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_sweep_row_accounting_and_levels_rule():
    cfg = ExperimentConfig(scenario="isi", method="task_based", grid=(8, 16, 24),
                           trials=500, seed=1, channels=8)
    rows = harness.sweep(cfg)
    methods = [r.method for r in rows]
    assert methods.count("task_based") == 3
    assert methods.count("bound") == 3
    # per-quantizer levels follow floor(2^(bits/p))
    des, realized, _ = harness.pipeline(cfg, harness.build_scenario(cfg), 24.0)
    assert des.quantizer.levels == 8
    assert realized == 24.0


def test_sweep_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        cfg = ExperimentConfig(scenario="isi", method="task_based",
                               grid=(8, 16), trials=400, seed=9, channels=8)
        harness.save_csv(harness.sweep(cfg), path)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "axis,method,metric,estimate,std_error,trials"


def test_sweep_ordering_task_vs_estimate_first():
    rows = {}
    for method in ("task_based", "mmse_then_quantize"):
        cfg = ExperimentConfig(scenario="isi", method=method, grid=(8, 24),
                               trials=4000, seed=2, channels=8)
        rows[method] = [r for r in harness.sweep(cfg) if r.method == method]
    for a, b in zip(rows["task_based"], rows["mmse_then_quantize"]):
        combined = np.hypot(a.std_error, b.std_error)
        assert a.estimate <= b.estimate + 3 * combined


@pytest.mark.parametrize("constraint", ["phase_only", "partial"])
def test_constrained_sweep_matches_prediction(constraint):
    sc = scenarios.isi_scenario()
    partition = tuple(i % 8 for i in range(sc.n)) if constraint == "partial" else None
    base = ExperimentConfig(scenario="isi", method="task_based", grid=(16, 24),
                            trials=20000, seed=3, channels=8)
    cfg = dataclasses.replace(base, method="constrained",
                              constraint=constraint, partition=partition)
    rows, unconstrained = harness.sweep(cfg)[:2], harness.sweep(base)[:2]
    for row, free in zip(rows, unconstrained):
        des = harness.pipeline(cfg, sc, row.axis)[0]
        excess = des.predicted_excess_mse
        gap = row.estimate - (sc.model.mmse_floor + excess)
        assert abs(gap) <= 0.05 * excess + 3 * row.std_error
        assert row.estimate >= free.estimate - 3 * np.hypot(row.std_error,
                                                            free.std_error)


def test_methods_on_quadratic_scenario():
    estimates = {}
    for method in ("task_based", "mmse_then_quantize", "digital_only"):
        cfg = ExperimentConfig(scenario="covariance", method=method,
                               grid=(12.0,), trials=2000, seed=4,
                               support_scale_range=(3.0, 6.5))
        estimates[method] = harness.sweep(cfg)[0].estimate
    assert estimates["task_based"] < estimates["mmse_then_quantize"]
    assert estimates["task_based"] < estimates["digital_only"]


def test_std_error_honesty():
    # independent repetitions stay within 3 reported standard errors
    sc = scenarios.isi_scenario()
    des = design(sc.model, 8, 8)
    rows = [harness.simulate_mse(des, sc, 2000, seed=s)
            for s in range(100)]
    grand = np.mean([r.estimate for r in rows])
    hits = sum(abs(r.estimate - grand) <= 3 * r.std_error for r in rows)
    assert hits >= 99


def test_simulate_ber_noiseless_map_and_determinism():
    sc = scenarios.bpsk_scenario(1e12)
    row = harness.simulate_ber(lambda x: scenarios.map_detect(x, sc), sc,
                               2000, seed=3)
    assert row.estimate == 0.0
    sc10 = scenarios.bpsk_scenario(10.0)
    r1 = harness.simulate_ber(lambda x: scenarios.map_detect(x, sc10), sc10,
                              5000, seed=3)
    r2 = harness.simulate_ber(lambda x: scenarios.map_detect(x, sc10), sc10,
                              5000, seed=3)
    assert r1.estimate == r2.estimate


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig(scenario="isi", grid=(8, 8))
    with pytest.raises(ConfigError, match="axis"):
        ExperimentConfig(scenario="isi", axis="volts", grid=(1, 2))
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(scenario="isi", trials=0)
    cfg = ExperimentConfig(scenario="nowhere", grid=(1.0, 2.0))
    with pytest.raises(ConfigError, match="unknown scenario"):
        harness.build_scenario(cfg)
    with pytest.raises(ConfigError, match="method"):
        harness.sweep(ExperimentConfig(scenario="isi", method="sorcery",
                                       grid=(8.0,)))


def test_too_few_bits_per_quantizer_rejected():
    cfg = ExperimentConfig(scenario="isi", method="digital_only", grid=(8.0,),
                           trials=10, seed=0)
    with pytest.raises(ConfigError, match="fewer than 1 bit"):
        harness.sweep(cfg)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("""
[scenario]
name = isi

[design]
channels = 8
support_scale = 4.0

[sweep]
axis = rate_bits
grid = 8 16 24
method = task_based
trials = 1234
seed = 7
dither = false
""")
    cfg = harness.load_config(path)
    assert cfg.scenario == "isi"
    assert cfg.channels == 8
    assert cfg.grid == (8.0, 16.0, 24.0)
    assert cfg.trials == 1234
    assert cfg.dither is False


def test_config_keys_name_dataclass_fields():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    train = {f.name for f in dataclasses.fields(harness.TrainSettings)}
    strays = [(section, key) for section, casts in harness._KEYS.items()
              for key in casts
              if ("scenario" if key == "name" else key)
              not in (train if section == "train" else fields)]
    assert strays == []


def test_load_config_reports_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[scenario]\nname = isi\n\n[sweep]\ntrials = soon\n")
    with pytest.raises(ConfigError, match=r"\[sweep\] trials"):
        harness.load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        harness.load_config(tmp_path / "missing.cfg")


def test_design_file_round_trip(tmp_path):
    sc = scenarios.isi_scenario()
    des = design(sc.model, 8, 16)
    path = tmp_path / "design.tbq"
    io.save_design(path, des)
    loaded = io.load_design(path)
    np.testing.assert_array_equal(loaded.analog, des.analog)
    np.testing.assert_array_equal(loaded.digital, des.digital)
    np.testing.assert_array_equal(loaded.singular_values, des.singular_values)
    assert loaded.quantizer == des.quantizer
    assert loaded.predicted_excess_mse == des.predicted_excess_mse
    assert loaded.waterline == des.waterline


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 6))
    net = deep.build_network(rng, 6, 3, 2, 4, x,
                             deep.TrainSettings(hidden_analog=(5,)))
    path = tmp_path / "model.tbq"
    io.save_model(path, net)
    loaded = io.load_model(path)
    np.testing.assert_array_equal(loaded.analog[0].weights, net.analog[0].weights)
    assert loaded.analog[0].activation == net.analog[0].activation
    np.testing.assert_array_equal(loaded.quantizer.outer, net.quantizer.outer)
    out_a = deep.forward(net, x)
    out_b = deep.forward(loaded, x)
    np.testing.assert_array_equal(out_a, out_b)


def test_binary_magic_is_checked(tmp_path):
    path = tmp_path / "junk.tbq"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="magic"):
        io.load_design(path)


@pytest.mark.parametrize("trials", [1, 2, 8192, 3 * 8192 + 17])
def test_block_merge_matches_whole_array_statistics(trials):
    data = np.random.default_rng(12).normal(3.0, 2.0, trials) ** 2
    chunks = iter(np.split(data, range(8192, trials, 8192)))

    def block(rng, count):
        chunk = next(chunks)
        assert chunk.size == count
        return chunk

    est, se = harness._monte_carlo(block, trials, seed=0)
    assert est == pytest.approx(np.mean(data), rel=1e-12)
    if trials == 1:
        assert np.isnan(se)
    else:
        expected = np.std(data, ddof=1) / np.sqrt(trials)
        assert se == pytest.approx(expected, rel=1e-12)


def test_simulate_mse_memory_does_not_grow_with_trials():
    sc = scenarios.isi_scenario()
    des = design(sc.model, 8, 16)
    peaks = []
    for trials in (10 ** 5, 10 ** 6):
        tracemalloc.start()
        try:
            harness.simulate_mse(des, sc, trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


_SHARED_CASES = {
    "isi_task_based": ExperimentConfig(scenario="isi", method="task_based",
                                       grid=(8.0, 16.0, 24.0), trials=9000,
                                       seed=14, channels=8),
    "covariance_digital_only": ExperimentConfig(
        scenario="covariance", method="digital_only", grid=(12.0, 24.0, 36.0),
        trials=9000, seed=14),
    "bpsk_quantized_map": ExperimentConfig(
        scenario="bpsk", method="quantized_map", axis="snr_db", snr_db=10.0,
        grid=(6.0, 8.0, 10.0), trials=9000, seed=14),
}


@pytest.mark.parametrize("case", sorted(_SHARED_CASES))
def test_a_row_does_not_depend_on_the_other_grid_points(case):
    # every sub-grid, one-point sweeps included, reproduces its rows exactly
    cfg = _SHARED_CASES[case]
    full = {r.axis: r.csv_line() for r in harness.sweep(cfg) if r.method != "bound"}
    for grid in [(v,) for v in cfg.grid] + [cfg.grid[:2], cfg.grid[::2],
                                              cfg.grid[1:]]:
        rows = harness.sweep(dataclasses.replace(cfg, grid=grid))
        assert [r.csv_line() for r in rows if r.method != "bound"] == [
            full[v] for v in grid]


def test_simulate_reproduces_the_sweep_row_at_its_budget(tmp_path, capsys):
    from taskquant import cli
    text = ("[scenario]\nname = isi\n\n[design]\nchannels = 8\n\n"
            "[sweep]\ngrid = 8 16 24\ntrials = 9000\nseed = 3\n")
    path = tmp_path / "isi.cfg"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path)]) == 0
    swept = capsys.readouterr().out.splitlines()[1:4]
    for line in swept:
        path.write_text(text + f"rate_bits = {line.split(',')[0]}\n")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == line


def test_rows_share_draws_read_only_and_in_call_order():
    def reader(rng, count):
        return rng.standard_normal((count, 2)).sum(axis=1)

    def writer(rng, count):
        g = rng.standard_normal((count, 2))
        g += 1.0
        return g.sum(axis=1)

    def other_shape(rng, count):
        return rng.standard_normal((count, 3)).sum(axis=1)

    def extra_draw(rng, count):
        return reader(rng, count) + rng.uniform(0.0, 1.0, count)

    for rows in ([reader, writer], [writer], [reader, other_shape],
                 [reader, extra_draw]):
        with pytest.raises(ValueError):
            harness._monte_carlo_rows(rows, 10, seed=0)
    (a, se_a, _), (b, se_b, _) = harness._monte_carlo_rows([reader, reader],
                                                           9000, seed=0)
    assert (a, se_a) == (b, se_b) == harness._monte_carlo(reader, 9000, seed=0)

    seen = []

    def second_block_writer(rng, count):
        g = rng.standard_normal((count, 2))
        seen.append(g)
        if len(seen) == 2:
            g += 1.0
        return g.sum(axis=1)

    with pytest.raises(ValueError):
        harness._monte_carlo_rows([second_block_writer], 2 * harness._BLOCK,
                                  seed=0)
    assert seen[1] is seen[0]          # block 2 drew into block 1's array


@pytest.mark.parametrize("scenario, method, grid", [
    ("isi", "task_based", (16.0, 24.0, 32.0)),
    ("covariance", "task_based", (12.0, 24.0, 36.0)),
    ("covariance", "digital_only", (12.0, 24.0, 36.0)),
    ("bpsk", "map", (6.0, 8.0, 10.0)),
    ("bpsk", "quantized_map", (6.0, 8.0, 10.0)),
])
def test_refilled_draws_leave_every_row_unchanged(monkeypatch, scenario,
                                                  method, grid):
    # three full blocks refill the previous block's draw arrays; the short
    # fourth block allocates its own
    snr = scenario == "bpsk"
    cfg = ExperimentConfig(scenario=scenario, method=method, grid=grid,
                           axis="snr_db" if snr else "rate_bits",
                           snr_db=10.0 if snr else None, channels=None if snr else 8,
                           trials=3 * harness._BLOCK + 5, seed=4)
    refill, refilled = harness._Replay._refill, []

    def counted(self, call):
        values = refill(self, call)
        refilled.append(values is not None)
        return values

    monkeypatch.setattr(harness._Replay, "_refill", counted)
    lines = [row.csv_line() for row in harness.sweep(cfg)]
    assert any(refilled)
    monkeypatch.setattr(harness._Replay, "_refill", lambda self, call: None)
    assert [row.csv_line() for row in harness.sweep(cfg)] == lines


def test_row_constants_are_built_once_per_grid_point(monkeypatch):
    builds = {"QuantizedMapTable": 0, "map_weights": 0, "combiner": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            builds[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(scenarios, "QuantizedMapTable")
    count(scenarios, "map_weights")
    count(quadratic_task.LiftedTaskModel, "combiner")
    trials = 3 * harness._BLOCK + 5
    for method in ("map", "quantized_map"):
        harness.sweep(ExperimentConfig(scenario="bpsk", method=method,
                                       axis="snr_db", grid=(6.0, 8.0, 10.0),
                                       snr_db=10.0, trials=trials, seed=4))
    harness.sweep(ExperimentConfig(scenario="covariance", method="task_based",
                                   grid=(12.0, 24.0, 36.0), trials=trials,
                                   seed=4))
    assert builds == {"QuantizedMapTable": 3, "map_weights": 3, "combiner": 3}


def test_replayed_uniform_is_the_generators_uniform():
    size = (300, 7)
    draws = harness._Replay(np.random.default_rng(8))
    first = draws.uniform(-0.3, 0.7, size)
    np.testing.assert_array_equal(
        first, np.random.default_rng(8).uniform(-0.3, 0.7, size))
    draws.rewind()
    np.testing.assert_array_equal(
        draws.uniform(-2.5, 0.5, size),
        np.random.default_rng(8).uniform(-2.5, 0.5, size))


def test_sweep_memory_does_not_grow_with_trials():
    peaks = []
    for trials in (10 ** 5, 4 * 10 ** 5):
        cfg = ExperimentConfig(scenario="isi", method="task_based",
                               grid=(8.0, 16.0, 24.0), trials=trials, seed=3,
                               channels=8)
        tracemalloc.start()
        try:
            harness.sweep(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def _counted_scenarios(monkeypatch):
    """Make every scenario a sweep builds count its sampler's calls; returns
    the list of per-scenario call counts, in build order."""
    calls, build = [], harness.build_scenario

    def counted(config):
        spec = build(config)
        sampler, slot = spec.sampler, len(calls)
        calls.append(0)

        def sample(rng, count, **kwargs):
            calls[slot] += 1
            return sampler(rng, count, **kwargs)

        return dataclasses.replace(spec, sampler=sample)

    monkeypatch.setattr(harness, "build_scenario", counted)
    return calls


@pytest.mark.parametrize("scenario, method", [("covariance", "task_based"),
                                              ("isi", "digital_only")])
def test_sampler_runs_once_per_block(monkeypatch, scenario, method):
    calls = _counted_scenarios(monkeypatch)
    cfg = ExperimentConfig(scenario=scenario, method=method,
                           grid=(12.0, 24.0, 36.0) if scenario == "covariance"
                           else (240.0, 360.0, 480.0),
                           trials=2 * harness._BLOCK + 5, seed=5)
    harness.sweep(cfg)
    assert calls == [3]


@pytest.mark.parametrize("method", ["map", "quantized_map"])
def test_snr_sweep_samples_once_per_block(monkeypatch, method):
    # the SNR points share each block's labels and s H^T: one sampler call
    # per trial block for the whole sweep, and each row still equals the row
    # of its own one-point sweep
    calls = _counted_scenarios(monkeypatch)
    cfg = ExperimentConfig(scenario="bpsk", method=method, axis="snr_db",
                           grid=(6.0, 8.0, 10.0), trials=harness._BLOCK + 5,
                           seed=5)
    rows = harness.sweep(cfg)
    assert calls == [2, 0, 0]
    for row, value in zip(rows, cfg.grid):
        alone = harness.sweep(dataclasses.replace(cfg, grid=(value,)))
        assert alone[0].csv_line() == row.csv_line()


def _pair_sampler(rng, count):
    g = rng.standard_normal((count, 2))
    return g, 2.0 * g


def test_shared_sample_is_read_only_and_keeps_later_draws_in_order():
    def reader(rng, count):
        tasks, obs = rng.sample(_pair_sampler, count)
        return (obs - tasks).sum(axis=1) + rng.uniform(0.0, 1.0, count)

    def writer(rng, count):
        tasks, obs = rng.sample(_pair_sampler, count)
        obs += 1.0
        return obs.sum(axis=1)

    for rows in ([reader, writer], [writer]):
        with pytest.raises(ValueError):
            harness._monte_carlo_rows(rows, 10, seed=0)
    (a, se_a, _), (b, se_b, _) = harness._monte_carlo_rows([reader, reader],
                                                           9000, seed=0)
    assert (a, se_a) == (b, se_b) == harness._monte_carlo(reader, 9000, seed=0)

    draws = harness._Replay(np.random.default_rng(3))
    tasks, obs = draws.sample(_pair_sampler, 50)
    dither = draws.uniform(0.0, 1.0, 50)
    draws.rewind()
    assert draws.sample(_pair_sampler, 50)[1] is obs
    np.testing.assert_array_equal(draws.uniform(0.0, 1.0, 50), dither)


def test_shared_sample_at_another_draw_raises():
    draws = harness._Replay(np.random.default_rng(3))
    draws.sample(_pair_sampler, 50)
    draws.rewind()
    draws.standard_normal((50, 2))
    with pytest.raises(ValueError):
        draws.sample(_pair_sampler, 50)


@pytest.mark.parametrize("scenario, method, grid", [
    ("covariance", "task_based", (12.0, 24.0, 36.0)),
    ("covariance", "mmse_then_quantize", (12.0, 24.0, 36.0)),
    ("covariance", "digital_only", (12.0, 24.0, 36.0)),
    ("isi", "digital_only", (240.0, 360.0, 480.0)),
])
def test_shared_sample_rows_match_rows_that_sample_themselves(
        monkeypatch, scenario, method, grid):
    cfg = ExperimentConfig(scenario=scenario, method=method, grid=grid,
                           trials=harness._BLOCK + 1000, seed=6)
    shared = [row.csv_line() for row in harness.sweep(cfg)]
    monkeypatch.setattr(harness._Replay, "sample",
                        lambda self, sampler, count: sampler(self, count))
    assert [row.csv_line() for row in harness.sweep(cfg)] == shared


def test_simulate_builds_its_scenario_once(monkeypatch):
    builds, build = [], harness.build_scenario

    def counted(config):
        builds.append(config.scenario)
        return build(config)

    monkeypatch.setattr(harness, "build_scenario", counted)
    harness.simulate(ExperimentConfig(scenario="isi", rate_bits=24.0,
                                      channels=8, trials=100, seed=1))
    harness.simulate(ExperimentConfig(scenario="bpsk", method="map",
                                      axis="snr_db", snr_db=8.0, trials=100))
    assert builds == ["isi", "bpsk"]


@pytest.mark.parametrize("axis", ["rate_bits", "snr_db"])
def test_simulate_bpsk_without_snr_names_the_key(axis):
    cfg = ExperimentConfig(scenario="bpsk", method="map", axis=axis,
                           rate_bits=12.0, trials=100)
    with pytest.raises(ConfigError, match=r"\[scenario\] snr_db: required"):
        harness.simulate(cfg)


_TINY_TRAINING = harness.TrainSettings(epochs=1, train_size=256, test_size=64)


def test_deep_rows_run_the_sweeps_trials_on_its_draws():
    # dft_pilot, not isi, whose deep estimator diverges; each point trains its
    # own net, but every row scores it on the trials of the grid-0 stream
    rate = ExperimentConfig(scenario="dft_pilot", method="deep", channels=40,
                            grid=(120.0, 240.0), trials=300, seed=4,
                            train=_TINY_TRAINING)
    snr = ExperimentConfig(scenario="bpsk", method="deep", axis="snr_db",
                           grid=(6.0, 10.0), rate_bits=12.0, trials=300, seed=4,
                           train=_TINY_TRAINING)
    rate_rows, snr_rows = ([r for r in harness.sweep(cfg) if r.method == "deep"]
                           for cfg in (rate, snr))
    assert [r.trials for r in rate_rows + snr_rows] == [300] * 4
    sc = scenarios.dft_pilot_scenario()
    draws = harness.derive_seed(rate.seed, "deep", 0)
    for idx, row in enumerate(rate_rows):
        net = harness.train_deep_estimator(
            sc, row.axis, 40, _TINY_TRAINING,
            harness.derive_seed(rate.seed, "deep", idx))["hardened"]
        want = harness._monte_carlo(harness._squared_errors(
            sc, lambda _, obs, rng: deep.forward(net, obs)), rate.trials, draws)
        assert (row.estimate, row.std_error) == want


@pytest.mark.parametrize("seed", [3, 11])
def test_estimator_score_keeps_the_one_shot_bytes(seed):
    # one block of test_size draws from the "test-data" stream, as the score
    # was formed before it ran through the trial-block loop
    sc = scenarios.dft_pilot_scenario()
    settings = dataclasses.replace(_TINY_TRAINING, test_size=1024)
    result = harness.train_deep_estimator(sc, 240.0, 40, settings, seed)
    tasks, obs = sc.sampler(harness.stream(seed, "test-data"), 1024)
    err = ((tasks - deep.forward(result["hardened"], obs)) ** 2).sum(axis=1)
    assert repr(result["test_mse"]) == repr(float(err.mean()))
    assert repr(result["test_se"]) == repr(float(err.std(ddof=1)
                                                  / np.sqrt(err.size)))

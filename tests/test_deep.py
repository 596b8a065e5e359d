import tracemalloc

import numpy as np
import pytest

from taskquant import deep
from taskquant.errors import ConfigError, TrainingDiverged
from taskquant.linear_task import LinearTaskModel, design


def small_net(rng, head="estimation", n=6, p=3, k=2, levels=4,
              hidden_analog=(5,), hidden_digital=(4,), steepness=6.0):
    x = rng.standard_normal((32, n))
    settings = deep.TrainSettings(hidden_analog=hidden_analog,
                                  hidden_digital=hidden_digital,
                                  steepness=steepness)
    outputs = k if head == "estimation" else 2 ** k
    return deep.build_network(rng, n, p, outputs, levels, x, settings,
                              head=head), x


def flatten(arrays):
    return np.concatenate([arr.ravel() for arr in arrays])


def set_params(net, vec):
    pos = 0
    for arr in net.parameters():
        arr.flat[:] = vec[pos:pos + arr.size]
        pos += arr.size


def test_soft_quantize_examples():
    assert deep.soft_quantize(0.5, [1.0], [0.0], [1000.0]) == pytest.approx(1.0, abs=1e-6)
    assert deep.soft_quantize(0.0, [1.0], [0.0], [7.0]) == 0.0
    # both saturated terms positive at z = 2 with thresholds at -1 and +1
    c = 200.0
    val = deep.soft_quantize(2.0, [0.5, 0.5], [-c, c], [c, c])
    assert val == pytest.approx(1.0, abs=1e-6)


def test_soft_quantize_matches_apply_and_broadcast_formula():
    rng = np.random.default_rng(23)
    for channels, levels in ((10, 64), (10, 8), (1, 2)):
        sq = deep.SoftQuantizer(
            outer=rng.uniform(0.1, 1.0, (channels, levels - 1)),
            shifts=rng.uniform(-50.0, 50.0, (channels, levels - 1)),
            steepness=rng.uniform(10.0, 60.0, (channels, levels - 1)))
        for batch in (1, 128):
            z = rng.standard_normal((batch, channels))
            got = deep.soft_quantize(z, sq.outer, sq.shifts, sq.steepness)
            assert got.shape == (batch, channels)
            assert np.array_equal(got, sq.apply(z))
            want = (sq.outer * np.tanh(z[:, :, None] * sq.steepness
                                       - sq.shifts)).sum(axis=2)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_forward_sign_like():
    c = 1000.0
    net = deep.Network(
        analog=[deep.DenseLayer(np.eye(3), np.zeros(3))],
        quantizer=deep.SoftQuantizer(outer=np.ones((3, 1)),
                                     shifts=np.zeros((3, 1)),
                                     steepness=np.full((3, 1), c)),
        digital=[deep.DenseLayer(np.eye(3), np.zeros(3))],
    )
    x = np.array([[0.5, -0.2, 1.5]])
    np.testing.assert_allclose(deep.forward(net, x), np.sign(x), atol=1e-6)


def test_forward_softmax_normalized():
    rng = np.random.default_rng(0)
    net, x = small_net(rng, head="classification")
    probs = deep.forward(net, x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_forward_zero_digital_gives_bias():
    rng = np.random.default_rng(1)
    net, x = small_net(rng, hidden_digital=())
    net.digital[-1].weights[:] = 0.0
    net.digital[-1].bias[:] = [0.7, -0.3]
    out = deep.forward(net, x)
    np.testing.assert_allclose(out, np.tile([0.7, -0.3], (x.shape[0], 1)))


def test_loss_values():
    rng = np.random.default_rng(2)
    net, x = small_net(rng)
    out = deep.forward(net, x)
    assert deep.loss(net, x, out) == 0.0
    # uniform classifier over 16 classes
    cnet, cx = small_net(rng, head="classification", k=4)
    for layer in cnet.digital:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    labels = rng.integers(0, 16, size=cx.shape[0])
    assert deep.loss(cnet, cx, labels) == pytest.approx(np.log(16.0))


def test_architecture_constraint_static_check():
    rng = np.random.default_rng(3)
    quant = deep.SoftQuantizer(outer=np.ones((3, 1)), shifts=np.zeros((3, 1)),
                               steepness=np.ones((3, 1)))
    good = deep.Network(
        analog=[deep.DenseLayer(rng.standard_normal((3, 6)), np.zeros(3))],
        quantizer=quant,
        digital=[deep.DenseLayer(rng.standard_normal((2, 3)), np.zeros(2))],
    )
    assert good.validate()
    with pytest.raises(ValueError, match="quantizer"):
        deep.Network(
            analog=[deep.DenseLayer(rng.standard_normal((4, 6)), np.zeros(4))],
            quantizer=quant,
            digital=[deep.DenseLayer(rng.standard_normal((2, 4)), np.zeros(2))],
        )
    with pytest.raises(ValueError, match="chain"):
        deep.Network(
            analog=[deep.DenseLayer(rng.standard_normal((3, 6)), np.zeros(3))],
            quantizer=quant,
            digital=[deep.DenseLayer(rng.standard_normal((2, 4)), np.zeros(2))],
        )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        head = "estimation" if trial % 2 == 0 else "classification"
        net, x = small_net(rng, head=head,
                           steepness=float(rng.uniform(1.0, 8.0)))
        x = x[:8]
        if head == "estimation":
            targets = rng.standard_normal((8, 2))
        else:
            targets = rng.integers(0, 4, size=8)
        _, grads = deep.backward(net, x, targets)
        analytic = flatten(grads)
        theta = flatten(net.parameters())
        fd = np.zeros_like(theta)
        step = 1e-5
        for i in range(theta.size):
            for sign, slot in ((1, 0), (-1, 1)):
                probe = theta.copy()
                probe[i] += sign * step
                set_params(net, probe)
                if slot == 0:
                    hi = deep.loss(net, x, targets)
                else:
                    lo = deep.loss(net, x, targets)
            fd[i] = (hi - lo) / (2 * step)
        set_params(net, theta)
        rel = np.abs(analytic - fd) / (np.abs(analytic) + np.abs(fd) + 1e-8)
        worst = max(worst, rel.max())
    assert worst < 1e-5


def test_outer_scale_gradient_symbolic():
    # single linear layer each side: dL/da_i = mean over batch of
    # tanh(c z - b) * downstream sensitivity
    rng = np.random.default_rng(5)
    w_dig = 1.7
    net = deep.Network(
        analog=[deep.DenseLayer(np.eye(1), np.zeros(1))],
        quantizer=deep.SoftQuantizer(outer=[[0.8]], shifts=[[0.3]],
                                     steepness=[[2.0]]),
        digital=[deep.DenseLayer(np.array([[w_dig]]), np.zeros(1))],
    )
    x = rng.standard_normal((16, 1))
    s = rng.standard_normal((16, 1))
    _, grads = deep.backward(net, x, s)
    t = np.tanh(2.0 * x - 0.3)
    out = w_dig * 0.8 * t
    expected = (2.0 * (out - s) / 16 * w_dig * t).sum()
    # parameters: analog weights and bias, then the quantizer's outer scales
    assert grads[2][0, 0] == pytest.approx(expected, rel=1e-12)


def test_zero_gradient_by_symmetry():
    rng = np.random.default_rng(6)
    net, _ = small_net(rng, hidden_analog=(), hidden_digital=())
    for layer in net.analog + net.digital:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    x = rng.standard_normal((8, 6))
    x = np.vstack([x, -x])
    s = rng.standard_normal((8, 2))
    s = np.vstack([s, -s])
    _, grads = deep.backward(net, x, s)
    # the last digital layer's bias
    np.testing.assert_allclose(grads[-1], 0.0, atol=1e-12)


def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((256, 6))
    s = x @ rng.standard_normal((6, 2))
    cfg = deep.TrainSettings(learning_rate=0.02, batch_size=32, epochs=15)

    def run():
        net, _ = small_net(np.random.default_rng(42), hidden_analog=(),
                           hidden_digital=(), steepness=20.0)
        history = deep.train(net, x, s, cfg, 3)
        return net, history

    net1, hist1 = run()
    net2, hist2 = run()
    assert hist1[-1] < 0.2 * hist1[0]
    assert hist1 == hist2
    for a, b in zip(net1.analog + net1.digital, net2.analog + net2.digital):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
    assert np.array_equal(net1.quantizer.outer, net2.quantizer.outer)
    assert np.array_equal(net1.quantizer.shifts, net2.quantizer.shifts)


def test_training_memorizes_repeated_sample():
    rng = np.random.default_rng(8)
    x = np.tile(rng.standard_normal(6), (64, 1))
    s = np.tile(rng.standard_normal(2), (64, 1))
    net, _ = small_net(np.random.default_rng(9), hidden_analog=(),
                       hidden_digital=(), steepness=20.0)
    cfg = deep.TrainSettings(learning_rate=0.05, batch_size=16, epochs=60)
    history = deep.train(net, x, s, cfg, 1)
    assert history[-1] < 1e-3


def test_training_seed_stability():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((512, 6))
    s = x @ rng.standard_normal((6, 2)) + 0.05 * rng.standard_normal((512, 2))
    losses = []
    for seed in (1, 2):
        net, _ = small_net(np.random.default_rng(50 + seed), hidden_analog=(),
                           hidden_digital=(), steepness=20.0)
        cfg = deep.TrainSettings(learning_rate=0.02, batch_size=64, epochs=40)
        losses.append(deep.train(net, x, s, cfg, seed)[-1])
    assert abs(losses[0] - losses[1]) < 0.1 * max(losses)


def test_training_divergence_aborts():
    rng = np.random.default_rng(11)
    x = 10.0 * rng.standard_normal((128, 6))
    s = 10.0 * rng.standard_normal((128, 2))
    net, _ = small_net(np.random.default_rng(12), hidden_analog=(),
                       hidden_digital=())
    cfg = deep.TrainSettings(learning_rate=1e6, batch_size=32, epochs=5)
    with pytest.raises(TrainingDiverged):
        deep.train(net, x, s, cfg, 1)


def test_trained_linear_net_approaches_closed_form():
    # linear-Gaussian task: the trained pipeline should come within 10% of
    # the designed pipeline's total error at the same channel/level budget
    rng = np.random.default_rng(13)
    n, k, p, levels = 8, 2, 2, 4
    mixing = rng.standard_normal((n, k))
    noise_var = 0.5
    obs_cov = mixing @ mixing.T + noise_var * np.eye(n)
    gamma = np.linalg.solve(obs_cov, mixing).T
    mmse = float(np.trace(np.eye(k) - gamma @ mixing))
    model = LinearTaskModel(obs_cov=obs_cov, task_matrix=gamma, mmse_floor=mmse)
    reference = mmse + design(model, p, levels).predicted_excess_mse

    s = rng.standard_normal((6000, k))
    x = s @ mixing.T + np.sqrt(noise_var) * rng.standard_normal((6000, n))
    cfg = deep.TrainSettings(learning_rate=0.01, batch_size=64, epochs=60,
                             support_scale=3.0, steepness=50.0)
    net = deep.build_network(np.random.default_rng(14), n, p, k, levels, x, cfg)
    deep.train(net, x, s, cfg, 2)
    hard = deep.harden(net)
    s_test = rng.standard_normal((4000, k))
    x_test = s_test @ mixing.T + np.sqrt(noise_var) * rng.standard_normal((4000, n))
    mse = float(((s_test - deep.forward(hard, x_test)) ** 2).sum(axis=1).mean())
    assert mse <= 1.10 * reference


def test_harden_examples():
    sq = deep.SoftQuantizer(outer=[[1.0]], shifts=[[0.0]], steepness=[[10.0]])
    net = deep.Network(analog=[deep.DenseLayer(np.eye(1), np.zeros(1))],
                       quantizer=sq,
                       digital=[deep.DenseLayer(np.eye(1), np.zeros(1))])
    spec = deep.harden(net).quantizer.channel_specs[0]
    np.testing.assert_allclose(spec.thresholds, [0.0])
    np.testing.assert_allclose(spec.levels, [-1.0, 1.0])

    c = 5.0
    sq3 = deep.SoftQuantizer(outer=[[0.5, 0.5]], shifts=[[-c, c]],
                             steepness=[[c, c]])
    net3 = deep.Network(analog=[deep.DenseLayer(np.eye(1), np.zeros(1))],
                        quantizer=sq3,
                        digital=[deep.DenseLayer(np.eye(1), np.zeros(1))])
    spec3 = deep.harden(net3).quantizer.channel_specs[0]
    np.testing.assert_allclose(spec3.thresholds, [-1.0, 1.0])
    np.testing.assert_allclose(spec3.levels, [-1.0, 0.0, 1.0])


def test_harden_merges_duplicate_thresholds():
    sq = deep.SoftQuantizer(outer=[[0.3, 0.2]], shifts=[[1.0, 1.0 + 1e-12]],
                            steepness=[[1.0, 1.0]])
    net = deep.Network(analog=[deep.DenseLayer(np.eye(1), np.zeros(1))],
                       quantizer=sq,
                       digital=[deep.DenseLayer(np.eye(1), np.zeros(1))])
    spec = deep.harden(net).quantizer.channel_specs[0]
    assert spec.thresholds.size == 1
    np.testing.assert_allclose(spec.levels, [-0.5, 0.5])


def test_harden_consistency_at_large_steepness():
    # away from the thresholds the soft map converges to the hard one
    rng = np.random.default_rng(15)
    c = 1000.0
    shifts = np.sort(rng.uniform(-c, c, 7))[None, :]
    outer = rng.uniform(0.1, 1.0, 7)[None, :]
    sq = deep.SoftQuantizer(outer=outer, shifts=shifts,
                            steepness=np.full((1, 7), c))
    net = deep.Network(analog=[deep.DenseLayer(np.eye(1), np.zeros(1))],
                       quantizer=sq,
                       digital=[deep.DenseLayer(np.eye(1), np.zeros(1))])
    hard = deep.harden(net)
    grid = np.linspace(-2.0, 2.0, 1001)
    thresholds = hard.quantizer.channel_specs[0].thresholds
    keep = np.all(np.abs(grid[:, None] - thresholds[None, :]) > 10.0 / c, axis=1)
    soft_out = deep.forward(net, grid[keep, None])
    hard_out = deep.forward(hard, grid[keep, None])
    np.testing.assert_allclose(soft_out, hard_out, atol=1e-6)


def test_soft_vs_hard_small_relative_gap_when_steep():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((512, 6))
    net, _ = small_net(np.random.default_rng(17), hidden_analog=(),
                       hidden_digital=(), steepness=120.0)
    hard = deep.harden(net)
    soft_out = deep.forward(net, x)
    hard_out = deep.forward(hard, x)
    gap = ((soft_out - hard_out) ** 2).sum(axis=1).mean()
    scale = (soft_out ** 2).sum(axis=1).mean()
    assert gap <= 0.05 * scale


def test_classify_examples():
    # craft a classifier emitting fixed probabilities through the bias
    def probe(bias):
        net = deep.Network(
            analog=[deep.DenseLayer(np.eye(2), np.zeros(2))],
            quantizer=deep.SoftQuantizer(outer=np.ones((2, 1)),
                                         shifts=np.zeros((2, 1)),
                                         steepness=np.ones((2, 1))),
            digital=[deep.DenseLayer(np.zeros((2, 2)), np.asarray(bias))],
            head="classification",
        )
        return deep.classify(net, np.zeros((1, 2)))[0]

    assert probe(np.log([0.7, 0.3])) == 0
    assert probe([0.0, 0.0]) == 0      # tie resolves to the lowest index


@pytest.mark.parametrize("head", ["estimation", "classification"])
def test_forward_and_loss_reject_wrong_input_width(head):
    net, x = small_net(np.random.default_rng(22), head=head)
    wide = np.hstack([x, x[:, :1]])
    targets = np.zeros((32, 2)) if head == "estimation" else np.zeros(32, int)
    with pytest.raises(ValueError, match="input dimension 7"):
        deep.forward(net, wide)
    with pytest.raises(ValueError, match="input dimension 7"):
        deep.loss(net, wide, targets)


def test_dataset_smaller_than_batch_rejected():
    rng = np.random.default_rng(18)
    net, _ = small_net(rng)
    with pytest.raises(ValueError):
        deep.train(net, np.zeros((4, 6)), np.zeros((4, 2)),
                   deep.TrainSettings(batch_size=8, epochs=1), 0)


def test_train_keeps_steepness_fixed():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((64, 6))
    s = x @ rng.standard_normal((6, 2))
    net, _ = small_net(np.random.default_rng(20), hidden_analog=(),
                       hidden_digital=(), steepness=10.0)
    base = net.quantizer.steepness.copy()
    cfg = deep.TrainSettings(learning_rate=1e-4, batch_size=32, epochs=3)
    deep.train(net, x, s, cfg, 1)
    np.testing.assert_array_equal(net.quantizer.steepness, base)
    with pytest.raises(ConfigError):
        deep.TrainSettings(learning_rate=-1.0)


@pytest.mark.parametrize("head", ["estimation", "classification"])
def test_parameters_order_gradients_and_train_step(head):
    rng = np.random.default_rng(22)
    net, x = small_net(rng, head=head, hidden_analog=(5,), hidden_digital=(4,))
    targets = (rng.standard_normal((32, 2)) if head == "estimation"
               else rng.integers(0, 4, size=32))
    params = net.parameters()
    forward_order = [arr for layer in net.analog
                     for arr in (layer.weights, layer.bias)]
    forward_order += [net.quantizer.outer, net.quantizer.shifts]
    forward_order += [arr for layer in net.digital
                      for arr in (layer.weights, layer.bias)]
    assert len(params) == len(forward_order) == 10
    assert all(got is want for got, want in zip(params, forward_order))
    _, grads = deep.backward(net, x, targets)
    assert [g.shape for g in grads] == [p.shape for p in params]
    # one epoch over exactly one batch: one SGD step on train's permutation
    cfg = deep.TrainSettings(learning_rate=0.05, batch_size=32, epochs=1)
    pick = np.random.default_rng(3).permutation(32)
    _, grads = deep.backward(net, x[pick], targets[pick])
    expected = [p - cfg.learning_rate * g for p, g in zip(params, grads)]
    deep.train(net, x, targets, cfg, 3)
    for got, want in zip(net.parameters(), expected, strict=True):
        assert got.tobytes() == want.tobytes()


def reference_backward(net, x, targets):
    """Loss and gradients from the plain broadcast formulas of the soft
    quantizer, every (batch, channels, levels - 1) product spelled out."""
    batch = x.shape[0]
    inputs, act = [], x
    for layer in net.analog:
        inputs.append(act)
        act = act @ layer.weights.T + layer.bias
        if layer.activation == "tanh":
            act = np.tanh(act)
    qz = net.quantizer
    t = np.tanh(act[:, :, None] * qz.steepness - qz.shifts)
    act = (qz.outer * t).sum(axis=2)
    dig_inputs = []
    for layer in net.digital:
        dig_inputs.append(act)
        act = act @ layer.weights.T + layer.bias
        if layer.activation == "tanh":
            act = np.tanh(act)
    if net.head == "estimation":
        value = float(((act - targets) ** 2).sum(axis=1).mean())
        up = 2.0 * (act - targets) / batch
    else:
        probs = np.exp(act - act.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        value = float(-np.log(probs[np.arange(batch), targets]).mean())
        up = (probs - np.eye(act.shape[1])[targets]) / batch

    def dense(layers, layer_inputs, up):
        grads = []
        for layer, inp in reversed(list(zip(layers, layer_inputs))):
            if layer.activation == "tanh":
                up = up * (1.0 - np.tanh(inp @ layer.weights.T + layer.bias) ** 2)
            grads[:0] = [up.T @ inp, up.sum(axis=0)]
            up = up @ layer.weights
        return grads, up

    digital, dq = dense(net.digital, dig_inputs, up)
    sech2 = 1.0 - t ** 2
    d_outer = (dq[:, :, None] * t).sum(axis=0)
    d_shifts = -(dq[:, :, None] * qz.outer * sech2).sum(axis=0)
    dz = (dq[:, :, None] * qz.outer * qz.steepness * sech2).sum(axis=2)
    analog, _ = dense(net.analog, inputs, dz)
    return value, [*analog, d_outer, d_shifts, *digital]


def wide_net(seed, head, levels, hidden=(9,), batch=128, channels=10):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 12))
    net, _ = small_net(rng, head=head, n=12, p=channels, k=2, levels=levels,
                       hidden_analog=hidden, hidden_digital=hidden,
                       steepness=50.0)
    targets = (rng.standard_normal((batch, 2)) if head == "estimation"
               else rng.integers(0, 4, size=batch))
    return net, x, targets


def worst_reference_gap(net, x, targets):
    """Largest relative gap between `backward` and `reference_backward`."""
    value, grads = deep.backward(net, x, targets)
    ref_value, ref = reference_backward(net, x, targets)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    # two layers on each side of the quantizer
    assert len(grads) == len(ref) == len(net.parameters()) == 10
    return max(np.linalg.norm(got - want) / np.linalg.norm(want)
               for got, want in zip(grads, ref))


@pytest.mark.parametrize("head", ["estimation", "classification"])
@pytest.mark.parametrize("levels", [2, 8, 64])
def test_backward_matches_broadcast_reference(head, levels):
    worst = max(worst_reference_gap(*wide_net(seed, head, levels))
                for seed in range(4))
    assert worst <= 1e-12


@pytest.mark.parametrize("head", ["estimation", "classification"])
@pytest.mark.parametrize("batch, channels, levels",
                         [(1, 10, 8), (128, 1, 8), (128, 10, 2), (1, 1, 2)])
def test_backward_matches_reference_at_edge_shapes(head, batch, channels, levels):
    # one sample, one channel or one term per channel: the batched products
    # of the soft quantizer run as matrix-vector kernels
    worst = max(worst_reference_gap(*wide_net(seed, head, levels, batch=batch,
                                              channels=channels))
                for seed in range(4))
    assert worst <= 1e-12


@pytest.mark.parametrize("head", ["estimation", "classification"])
def test_backward_loss_equals_forward_loss_bitwise(head):
    for seed in range(10):
        net, x, targets = wide_net(seed, head, 64)
        assert deep.backward(net, x, targets)[0] == deep.loss(net, x, targets)


def test_backward_memory_stays_near_one_tanh_tensor():
    rng = np.random.default_rng(21)
    batch, channels, levels = 128, 40, 64
    x = rng.standard_normal((batch, 80))
    net = deep.build_network(rng, 80, channels, 16, levels, x,
                             deep.TrainSettings())
    targets = rng.standard_normal((batch, 16))
    deep.backward(net, x, targets)
    tracemalloc.start()
    try:
        deep.backward(net, x, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * batch * channels * (levels - 1) * 8

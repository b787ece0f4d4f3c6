import hashlib

import numpy as np
import pytest

from mptrain import nn
from mptrain import tensor as T
from mptrain.tensor import AccumMode, DType

import helpers
import oracles


def f32_ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    def key(x):
        u = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32).astype(np.int64)
        mag = u & 0x7FFFFFFF
        return np.where(u & 0x80000000, -mag, mag)
    return np.abs(key(a) - key(b))


def simple_mlp(seed=0):
    model = nn.Model([nn.Linear(4, 3), nn.Tanh(), nn.Linear(3, 2),
                      nn.SoftmaxCrossEntropy()])
    helpers.bind_f32(model, model.init_values(seed))
    return model


def test_linear_hand_example():
    # Linear(1,1,no bias), weight 2, input 3, squared-error target 0
    model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
    helpers.bind_f32(model, {"0.weight": np.array([[2.0]], dtype=np.float32)})
    x = helpers.from_values([1, 1], DType.F32, [3.0])
    target = helpers.from_values([1, 1], DType.F32, [0.0])
    loss, tape = nn.forward(model, x, target, nn.F32_POLICY)
    assert loss == 36.0

    grads = nn.backward(model, tape, 1.0)
    assert helpers.item(grads.weights["0.weight"]) == 36.0  # 2*3*(2*3-0)


def test_forward_rejects_wrong_dtype():
    model = simple_mlp()
    x16 = helpers.full([2, 4], DType.F16, 1.0)
    with pytest.raises(ValueError):
        nn.forward(model, x16, T.zeros([2], DType.F32), nn.F32_POLICY)


def test_softmax_row_sums_and_double_oracle():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-10, 10, (32, 7)).astype(np.float32)
    pred = T.store(logits, DType.F16)
    labels = rng.integers(0, 7, 32)

    layer = nn.SoftmaxCrossEntropy()
    rec = {}
    loss = layer.loss(pred, T.store(labels.astype(np.float32), DType.F32),
                      helpers.MP_POLICY, rec)

    sums = rec["probs"].sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-6

    # brute-force double-precision softmax on the same f16-stored logits
    z = pred.widen().astype(np.float64)
    e = np.exp(z)
    ref_loss = float(np.mean(np.log(e.sum(axis=1)) - z[np.arange(32), labels]))
    assert abs(loss - ref_loss) < 1e-5 * max(1.0, abs(ref_loss))


def test_batchnorm_identical_rows_stays_finite():
    model = nn.Model([nn.BatchNorm(3), nn.MeanSquaredError()])
    helpers.bind_f32(model, model.init_values(0))
    x = helpers.from_values([4, 3], DType.F32, [1.0, 2.0, 3.0] * 4)
    target = T.zeros([4, 3], DType.F32)
    loss, tape = nn.forward(model, x, target, nn.F32_POLICY)
    assert np.isfinite(loss)
    grads = nn.backward(model, tape, 1.0)
    for g in grads.weights.values():
        assert np.isfinite(g.widen()).all()


def test_batchnorm_running_stats_update():
    model = nn.Model([nn.BatchNorm(2, momentum=0.5), nn.MeanSquaredError()])
    helpers.bind_f32(model, model.init_values(0))
    x = helpers.from_values([2, 2], DType.F32, [0.0, 4.0, 2.0, 8.0])
    nn.forward(model, x, T.zeros([2, 2], DType.F32), nn.F32_POLICY, train=True)
    assert np.allclose(model.state["0.running_mean"], [0.5, 3.0])
    # eval mode must not touch state
    before = model.state["0.running_mean"].copy()
    nn.forward(model, x, T.zeros([2, 2], DType.F32), nn.F32_POLICY, train=False)
    assert np.array_equal(model.state["0.running_mean"], before)


def test_precision_placement_on_tape():
    model = nn.Model([nn.Linear(6, 5), nn.BatchNorm(5), nn.ReLU(),
                      nn.Linear(5, 3), nn.SoftmaxCrossEntropy()])
    vals = model.init_values(1)
    model.params = {k: T.store(v, DType.F16) for k, v in vals.items()}
    x = T.store(np.random.default_rng(1).normal(0, 1, (8, 6)).astype(np.float32),
                DType.F16)
    loss, tape = nn.forward(model, x, T.zeros([8], DType.F32), helpers.MP_POLICY)

    for entry in tape.entries:
        for value in entry.values():
            assert not isinstance(value, T.Tensor) or value.dtype is DType.F16
    bn_entry = tape.entries[1]
    assert set(bn_entry) >= {"mean", "invstd"}
    assert bn_entry["mean"].dtype == np.float32
    ce_entry = tape.entries[-1]
    assert ce_entry["probs"].dtype == np.float32

    grads = nn.backward(model, tape, 1.0)
    for g in grads.weights.values():
        assert g.dtype is DType.F16
    for a in grads.activations:
        assert a is None or a.dtype is DType.F16


def test_backward_scale_seeding_shifts_exponents():
    model = simple_mlp(seed=3)
    model.params = {k: T.cast(v, DType.F16) for k, v in model.params.items()}
    x = T.store(np.random.default_rng(3).normal(0, 1, (6, 4)).astype(np.float32),
                DType.F16)
    labels = T.store(np.array([0, 1, 0, 1, 0, 1], dtype=np.float32), DType.F32)
    _, tape = nn.forward(model, x, labels, helpers.MP_POLICY)
    g1 = nn.backward(model, tape, 1.0)
    g8 = nn.backward(model, tape, 8.0)

    checked = 0
    for key in g1.weights:
        # the exponent field of each gradient pattern, read off the bits
        ea = (g1.weights[key].data.reshape(-1) >> 10) & 0x1F
        eb = (g8.weights[key].data.reshape(-1) >> 10) & 0x1F
        normal = (ea > 0) & (ea < 31) & (eb > 0) & (eb < 31)
        assert (eb[normal] == ea[normal] + 3).all()
        checked += int(normal.sum())
    assert checked > 10


def test_small_gradient_rescued_by_scale():
    # unscaled activation gradient 2^-26: zero at S=1, representable at
    # S=8.  Prediction and target are adjacent subnormals (2^-24 apart,
    # the finest spacing f16 has); MSE's mean over 8 elements turns the
    # residual into 2 * 2^-24 / 8 = 2^-26 in the f32 loss arithmetic.
    model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
    w = 2.0**-20
    model.params = {"0.weight": T.store(np.array([[w]], dtype=np.float32),
                                        DType.F16)}
    x = helpers.full([8, 1], DType.F16, 1.0)
    target = helpers.full([8, 1], DType.F16, w - 2.0**-24)
    assert float(target.widen()[0, 0]) == w - 2.0**-24  # representable exactly
    _, tape = nn.forward(model, x, target, helpers.MP_POLICY)

    g1 = nn.backward(model, tape, 1.0)
    assert (g1.activations[-1].data == 0x0000).all()
    assert g1.weights["0.weight"].data[0, 0] == 0x0000

    g8 = nn.backward(model, tape, 8.0)
    dpred = g8.activations[-1]
    assert (dpred.widen() == 8 * 2.0**-26).all()
    stored = int(g8.weights["0.weight"].data[0, 0])
    assert oracles.half_value(stored) == 8 * (8 * 2.0**-26)  # summed over the batch


def test_scaling_linearity_f32_reference():
    model = simple_mlp(seed=5)
    x = T.store(np.random.default_rng(5).normal(0, 1, (16, 4)).astype(np.float32),
                DType.F32)
    labels = T.store(np.random.default_rng(6).integers(0, 2, 16).astype(np.float32),
                     DType.F32)
    _, tape = nn.forward(model, x, labels, nn.F32_POLICY)
    g1 = nn.backward(model, tape, 1.0)
    for s in (8.0, 128.0, 32768.0):
        gs = nn.backward(model, tape, s)
        for key in g1.weights:
            scaled = g1.weights[key].widen() * np.float32(s)
            dist = f32_ulp_distance(gs.weights[key].widen(), scaled)
            assert dist.max() <= 4


def test_backward_acc16_vs_acc32_long_k():
    lay = nn.Linear(1, 1, bias=False)
    params = {"weight": helpers.full([1, 1], DType.F16, 1.0)}
    rec = {"x": helpers.full([4096, 1], DType.F16, 1.0)}
    dy = helpers.full([4096, 1], DType.F16, 1.0)

    _, g32 = lay.backward(dy, params, nn.PrecisionPolicy(DType.F16, AccumMode.ACC32), rec)
    _, g16 = lay.backward(dy, params, nn.PrecisionPolicy(DType.F16, AccumMode.ACC16), rec)
    assert helpers.item(g32["weight"]) == 4096.0  # matches the exact sum
    assert helpers.item(g16["weight"]) == 2048.0  # f16 accumulator saturates


def test_grad_check_feedforward():
    model = simple_mlp(seed=7)
    rng = np.random.default_rng(7)
    x = T.store(rng.normal(0, 1, (5, 4)).astype(np.float32), DType.F32)
    labels = T.store(rng.integers(0, 2, 5).astype(np.float32), DType.F32)
    err = oracles.grad_check(model, x, labels)
    assert err < 1e-4


def test_grad_check_batchnorm_mse():
    # no bias ahead of the norm layer: mean subtraction makes it inert,
    # leaving only f32 noise where the true gradient is exactly zero
    model = nn.Model([nn.Linear(3, 4, bias=False), nn.BatchNorm(4), nn.Tanh(),
                      nn.Linear(4, 2), nn.MeanSquaredError()])
    helpers.bind_f32(model, model.init_values(8))
    rng = np.random.default_rng(8)
    x = T.store(rng.normal(0, 1, (6, 3)).astype(np.float32), DType.F32)
    target = T.store(rng.normal(0, 1, (6, 2)).astype(np.float32), DType.F32)
    err = oracles.grad_check(model, x, target)
    assert err < 1e-4


def test_grad_check_conv2d():
    model = nn.Model([nn.Conv2d(2, 3, 2, 2, stride=1, pad=1), nn.Sigmoid(),
                      nn.MeanSquaredError()])
    helpers.bind_f32(model, model.init_values(9))
    rng = np.random.default_rng(9)
    x = T.store(rng.normal(0, 1, (2, 2, 4, 4)).astype(np.float32), DType.F32)
    target = T.store(rng.normal(0, 1, (2, 3, 5, 5)).astype(np.float32), DType.F32)
    err = oracles.grad_check(model, x, target)
    assert err < 1e-4


def test_grad_check_lstm_three_steps():
    model = nn.Model([nn.LSTMCell(3, 4), nn.Linear(4, 2),
                      nn.SoftmaxCrossEntropy()])
    helpers.bind_f32(model, model.init_values(10))
    rng = np.random.default_rng(10)
    x = T.store(rng.normal(0, 1, (5, 3, 3)).astype(np.float32), DType.F32)
    labels = T.store(rng.integers(0, 2, 5).astype(np.float32), DType.F32)
    err = oracles.grad_check(model, x, labels)
    assert err < 1e-3


def test_grad_check_zero_model():
    model = nn.Model([nn.Linear(3, 2, bias=False), nn.MeanSquaredError()])
    helpers.bind_f32(model, {"0.weight": np.zeros((3, 2), dtype=np.float32)})
    x = T.zeros([4, 3], DType.F32)
    target = T.zeros([4, 2], DType.F32)
    err = oracles.grad_check(model, x, target)
    assert err < 1e-6


def test_conv_matches_linear_on_1x1():
    # 1x1 convolution over a 1x1 image is exactly a linear layer
    rng = np.random.default_rng(11)
    w = rng.normal(0, 1, (2, 3)).astype(np.float32)  # [in, out]
    conv = nn.Model([nn.Conv2d(2, 3, 1, 1), nn.MeanSquaredError()])
    helpers.bind_f32(conv, {"0.weight": np.ascontiguousarray(w.T).reshape(3, 2, 1, 1),
                            "0.bias": np.zeros(3, dtype=np.float32)})
    lin = nn.Model([nn.Linear(2, 3), nn.MeanSquaredError()])
    helpers.bind_f32(lin, {"0.weight": w.copy(), "0.bias": np.zeros(3, dtype=np.float32)})

    x = rng.normal(0, 1, (4, 2)).astype(np.float32)
    target = rng.normal(0, 1, (4, 3)).astype(np.float32)
    loss_c, _ = nn.forward(conv, T.store(x.reshape(4, 2, 1, 1), DType.F32),
                           T.store(target.reshape(4, 3, 1, 1), DType.F32),
                           nn.F32_POLICY)
    loss_l, _ = nn.forward(lin, T.store(x, DType.F32),
                           T.store(target, DType.F32), nn.F32_POLICY)
    assert loss_c == loss_l


def test_model_validation_and_spec_parsing():
    with pytest.raises(ValueError):
        nn.Model([nn.Linear(2, 2)])
    with pytest.raises(ValueError):
        nn.Model([nn.MeanSquaredError(), nn.Linear(2, 2), nn.MeanSquaredError()])
    with pytest.raises(ValueError):
        nn.BatchNorm(3, momentum=0.0)
    with pytest.raises(ValueError):
        nn.BatchNorm(3, epsilon=0.0)
    with pytest.raises(ValueError):
        nn.Linear(0, 2)

    specs = ["Linear(784,256,bias=true)", "ReLU", "Linear(256,10,bias=true)",
             "SoftmaxCrossEntropy"]
    model = nn.model_from_specs(specs)
    assert model.spec_strings() == specs

    rt = nn.layer_from_spec("Conv2d(3,8,3,3,stride=2,pad=1)")
    assert nn.layer_from_spec(rt.spec_string()).spec_string() == rt.spec_string()
    with pytest.raises(ValueError):
        nn.layer_from_spec("Blah(3)")
    with pytest.raises(ValueError):
        nn.layer_from_spec("Linear(a,b)")


# Spec strings go into checkpoint manifests byte for byte.
SPEC_STRINGS = [
    (nn.Linear(3, 2), "Linear(3,2,bias=true)"),
    (nn.Linear(3, 2, bias=False), "Linear(3,2,bias=false)"),
    (nn.Conv2d(1, 2, 3, 3), "Conv2d(1,2,3,3,stride=1,pad=0)"),
    (nn.Conv2d(3, 8, 3, 3, stride=2, pad=1), "Conv2d(3,8,3,3,stride=2,pad=1)"),
    (nn.ReLU(), "ReLU"),
    (nn.LeakyReLU(), "LeakyReLU(0.01)"),
    (nn.LeakyReLU(0.2), "LeakyReLU(0.2)"),
    (nn.Tanh(), "Tanh"),
    (nn.Sigmoid(), "Sigmoid"),
    (nn.BatchNorm(3), "BatchNorm(3,momentum=0.1,epsilon=1e-05)"),
    (nn.BatchNorm(3, momentum=0.5, epsilon=0.001),
     "BatchNorm(3,momentum=0.5,epsilon=0.001)"),
    (nn.LSTMCell(28, 8), "LSTMCell(28,8)"),
    (nn.SoftmaxCrossEntropy(), "SoftmaxCrossEntropy"),
    (nn.MeanSquaredError(), "MeanSquaredError"),
]


@pytest.mark.parametrize("layer,spec", SPEC_STRINGS, ids=[s for _, s in SPEC_STRINGS])
def test_spec_string_of_every_layer_kind(layer, spec):
    assert layer.spec_string() == spec
    assert nn.layer_from_spec(spec).spec_string() == spec


def test_spec_strings_cover_every_layer_kind():
    assert {type(layer) for layer, _ in SPEC_STRINGS} == set(nn._LAYER_KINDS.values())


def test_predictions_shape_and_eval_mode():
    model = simple_mlp(seed=12)
    x = T.store(np.random.default_rng(12).normal(0, 1, (9, 4)).astype(np.float32),
                DType.F32)
    out = nn.predictions(model, x, nn.F32_POLICY)
    assert out.shape == (9, 2)


@pytest.mark.parametrize("first", ["Linear(4,3,bias=true)", "LSTMCell(4,3)",
                                   "Conv2d(2,3,2,2,stride=1,pad=1)"])
def test_first_input_grad_false_skips_dx_only(first):
    rng = np.random.default_rng(13)
    if not first.startswith("Conv2d"):
        model = nn.model_from_specs([first, "Tanh", "Linear(3,2,bias=true)",
                                     "SoftmaxCrossEntropy"])
        x = rng.normal(0, 1, (6, 5, 4) if first.startswith("LSTMCell") else (6, 4))
        targets = T.store(rng.integers(0, 2, 6).astype(np.float32), DType.F32)
    else:
        model = nn.model_from_specs([first, "Sigmoid", "MeanSquaredError"])
        x = rng.normal(0, 1, (2, 2, 4, 4))
        targets = T.store(rng.normal(0, 1, (2, 3, 5, 5)).astype(np.float32),
                          DType.F16)
    helpers.bind_f32(model, model.init_values(13))
    model.params = {k: T.cast(v, DType.F16) for k, v in model.params.items()}
    x = T.store(x.astype(np.float32), DType.F16)
    _, tape = nn.forward(model, x, targets, helpers.MP_POLICY)

    full = nn.backward(model, tape, 8.0, first_input_grad=True)
    skip = nn.backward(model, tape, 8.0, first_input_grad=False)
    assert full.activations[0] is not None and full.activations[0].shape == x.shape
    assert skip.activations[0] is None
    assert full.weights.keys() == skip.weights.keys()
    for key in full.weights:
        assert helpers.bits_equal(full.weights[key], skip.weights[key]), key
    for a, b in zip(full.activations[1:], skip.activations[1:]):
        assert helpers.bits_equal(a, b)


@pytest.mark.parametrize("policy", [nn.F32_POLICY, helpers.MP_POLICY], ids=["f32", "mp"])
@pytest.mark.parametrize("specs,shape,other", [
    (["Linear(784,5,bias=true)", "Tanh", "Linear(5,3,bias=true)", "SoftmaxCrossEntropy"],
     (4, 28, 28), (4, 784)),
    # the Linear after Conv2d reads its [batch, C, H, W] output as is
    (["Conv2d(1,2,3,3,stride=1,pad=1)", "ReLU", "Linear(50,3,bias=true)",
      "SoftmaxCrossEntropy"], (4, 5, 5), (4, 1, 5, 5)),
], ids=["linear", "conv2d"])
def test_first_layer_reads_the_input_shape_it_is_given(specs, shape, other, policy):
    rng = np.random.default_rng(14)
    model = nn.model_from_specs(specs)
    helpers.bind_f32(model, model.init_values(14))
    model.params = {k: T.cast(v, policy.compute_dtype) for k, v in model.params.items()}
    values = rng.normal(0, 1, shape).astype(np.float32)
    targets = T.store(rng.integers(0, 3, shape[0]).astype(np.float32), policy.compute_dtype)
    runs = []
    for s in (shape, other):
        x = T.store(values.reshape(s), policy.compute_dtype)
        loss, tape = nn.forward(model, x, targets, policy)
        grads = nn.backward(model, tape, 8.0)
        assert grads.activations[0].shape == s
        runs.append((loss, grads))
    (loss_a, a), (loss_b, b) = runs
    assert loss_a == loss_b
    assert a.weights.keys() == b.weights.keys()
    for key in a.weights:
        assert helpers.bits_equal(a.weights[key], b.weights[key]), key
    assert a.activations[0].data.tobytes() == b.activations[0].data.tobytes()


@pytest.mark.parametrize("bad", [-1, 2])
def test_softmax_rejects_labels_outside_class_range(bad):
    layer = nn.SoftmaxCrossEntropy()
    pred = helpers.from_values([2, 2], DType.F32, [0.5, -0.5, 1.0, 2.0])
    labels = T.store(np.array([0, 1], dtype=np.float32), DType.F32)
    assert np.isfinite(layer.loss(pred, labels, nn.F32_POLICY, {}))
    bad_labels = T.store(np.array([0, bad], dtype=np.float32), DType.F32)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        layer.loss(pred, bad_labels, nn.F32_POLICY, {})


# Conv2d and LSTMCell cases of the bit pin below: (specs, input shape).
# The strides and pads cover 1/2/3 and 0/1/2; one Conv2d reads [b, h, w].
PINNED_LAYERS = [
    (["Conv2d(2,3,3,3,stride=1,pad=0)", "MeanSquaredError"], (2, 2, 7, 7)),
    (["Conv2d(2,3,3,2,stride=2,pad=1)", "MeanSquaredError"], (2, 2, 8, 7)),
    (["Conv2d(3,2,2,3,stride=3,pad=2)", "MeanSquaredError"], (2, 3, 9, 8)),
    (["Conv2d(1,2,3,3,stride=2,pad=1)", "MeanSquaredError"], (3, 7, 6)),
    (["LSTMCell(4,3)", "MeanSquaredError"], (2, 5, 4)),
    (["LSTMCell(6,5)", "Linear(5,3,bias=true)", "SoftmaxCrossEntropy"], (3, 3, 6)),
]
PINNED_POLICIES = [nn.F32_POLICY, helpers.MP_POLICY,
                   nn.PrecisionPolicy(DType.F16, AccumMode.ACC16)]


def _layer_bits(specs, shape, policy, scale):
    """Loss, weight-gradient and activation-gradient bytes of one model
    whose weights and input are drawn at the given scale."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    model = nn.model_from_specs(specs)
    model.params = {k: T.store(v * np.float32(scale), policy.compute_dtype)
                    for k, v in sorted(model.init_values(15).items())}
    x = T.store(rng.normal(0, scale, shape).astype(np.float32), policy.compute_dtype)
    out = nn.predictions(model, x, policy)
    if specs[-1] == "SoftmaxCrossEntropy":
        targets = rng.integers(0, out.shape[1], out.shape[0]).astype(np.float32)
    else:
        targets = rng.normal(0, scale, out.shape).astype(np.float32)
    loss, tape = nn.forward(model, x, T.store(targets, policy.compute_dtype), policy)
    grads = nn.backward(model, tape, 8.0)
    parts = [np.float64(loss).tobytes()]
    parts += [key.encode() + grads.weights[key].data.tobytes()
              for key in sorted(grads.weights)]
    parts += [a.data.tobytes() for a in grads.activations]
    return b"".join(parts)


def test_conv2d_and_lstm_bits_are_pinned():
    # One digest over every case: a rewrite of either layer must keep
    # every bit of its loss and gradients.
    digest = hashlib.sha256()
    for specs, shape in PINNED_LAYERS:
        for policy in PINNED_POLICIES:
            for scale in (2.0**-6, 1.0, 16.0):
                digest.update(_layer_bits(specs, shape, policy, scale))
    assert digest.hexdigest() == (
        "7dafd86540cecbd06b680a3d9a5d3a22f2ec7416c5f2c08d086f3993cc5dfe38")


def test_lstm_tapes_one_gate_tensor_per_step(monkeypatch):
    layer = nn.LSTMCell(4, 3)
    params = {k: T.store(v, DType.F16) for k, v in layer.init_values(16, 0).items()}
    x = T.store(np.random.default_rng(16).normal(0, 1, (2, 5, 4)).astype(np.float32),
                DType.F16)
    stores, real_store = [], nn._store

    def counting_store(values, policy):
        stores.append(values.shape)
        return real_store(values, policy)
    monkeypatch.setattr(nn, "_store", counting_store)
    rec = {}
    layer.forward(x, params, helpers.MP_POLICY, rec, True, {})
    assert len(rec) == 1 + 4 * 5           # the input; h_prev, c_prev, gates, c per step
    assert stores == [(2, 12), (2, 3), (2, 3)] * 5   # gates, c and h per step
    assert rec["t0.gates"].shape == (2, 12)

    # backward rounds only through _store: dz, dh and dc per step, then
    # dx once for every step and each weight gradient once
    stores.clear()
    layer.backward(T.store(np.ones((2, 3), np.float32), DType.F16), params,
                   helpers.MP_POLICY, rec)
    assert stores == ([(2, 12), (2, 3), (2, 3)] * 5
                      + [(2, 5, 4), (4, 12), (3, 12), (12,)])

import math

import numpy as np
import pytest

from mptrain import mp_engine as eng
from mptrain import nn
from mptrain import tensor as T
from mptrain.tensor import AccumMode, DType

import helpers
import oracles


def tiny_model(in_dim=4, out_dim=2, seed=0, loss="mse"):
    tail = nn.MeanSquaredError() if loss == "mse" else nn.SoftmaxCrossEntropy()
    model = nn.Model([nn.Linear(in_dim, out_dim), tail])
    params = eng.make_parameters(model, seed)
    return model, params


def healthy_batch(in_dim=4, out_dim=2, n=16, seed=1):
    rng = np.random.default_rng(seed)
    x = T.store(rng.normal(0, 1, (n, in_dim)).astype(np.float32), DType.F32)
    t = T.store(rng.normal(0, 1, (n, out_dim)).astype(np.float32), DType.F32)
    return x, t


def masters_snapshot(params):
    return {k: p.master.data.copy() for k, p in params.items()}


def shadows_snapshot(params):
    return {k: p.shadow.data.copy() for k, p in params.items()}


# --- sync_shadow ------------------------------------------------------------

def test_sync_shadow_oracle_values():
    p = eng.Parameter("w", helpers.from_values([1], DType.F32, [1.0005]))
    expected = oracles.half_from_float(float(np.float32(1.0005)))
    assert p.shadow.data[0] == expected

    p2 = eng.Parameter("w", helpers.from_values([1], DType.F32, [2.0**-26]))
    assert p2.shadow.data[0] == 0x0000

    p3 = eng.Parameter("w", helpers.from_values([1], DType.F32, [1.5]))
    assert p3.shadow.data[0] == oracles.half_from_float(1.5)
    p3.sync_shadow()
    assert p3.shadow.data[0] == oracles.half_from_float(1.5)


@pytest.mark.parametrize("policy,casts_per_param", [
    (eng.TrainingPolicy(), 0), (eng.TrainingPolicy(helpers.MP_POLICY), 2)])
def test_train_step_casts_shadows_only_where_f16_reads_them(policy, casts_per_param,
                                                             monkeypatch):
    model, params = tiny_model(seed=1)
    x, t = healthy_batch(seed=1)
    calls = []
    real = eng.Parameter.sync_shadow
    monkeypatch.setattr(eng.Parameter, "sync_shadow",
                        lambda p: calls.append(p.name) or real(p))
    rep = eng.train_step(model, params, x, t, policy, lr=0.1)
    assert not rep.skipped
    assert len(calls) == casts_per_param * len(params)


# --- unscale / overflow / suggestion ----------------------------------------

def test_unscale_exact_powers_of_two():
    g = nn.Gradients({"w": T.store(np.array([2.0**-20], np.float32), DType.F16)}, [])
    out = eng.unscale(g, 8.0)
    assert out["w"][0] == 2.0**-23

    gi = nn.Gradients({"w": helpers.from_values([1], DType.F16, [float("inf")])}, [])
    assert math.isinf(eng.unscale(gi, 1024.0)["w"][0])

    g1 = eng.unscale(g, 1.0)
    assert g1["w"][0] == 2.0**-20


def test_detect_overflow():
    ok = {"a": np.zeros(10, np.float32), "b": np.ones(5, np.float32)}
    assert not eng.detect_overflow(ok)

    big = np.zeros(10**6, np.float32)
    big[123456] = np.nan
    assert eng.detect_overflow({"a": big})

    sat = {"a": np.array([65504.0], np.float32)}
    assert not eng.detect_overflow(sat)  # saturated but finite


# --- scaler state machine ----------------------------------------------------

def test_scaler_backoff_and_growth():
    sc = eng.DynamicScale(init_scale=1024.0, growth_factor=2.0,
                          backoff_factor=0.5, growth_interval=2000)
    sc.update(True)
    assert sc.scale == 512.0 and sc.steps_since_overflow == 0

    sc = eng.DynamicScale(init_scale=1024.0, growth_interval=2000)
    for _ in range(1999):
        sc.update(False)
    assert sc.scale == 1024.0
    sc.update(False)
    assert sc.scale == 2048.0 and sc.steps_since_overflow == 0


def test_scaler_validation():
    with pytest.raises(ValueError):
        eng.ConstantScale(3.0)
    with pytest.raises(ValueError):
        eng.DynamicScale(init_scale=-8)
    with pytest.raises(ValueError):
        eng.DynamicScale(growth_factor=1.0)
    with pytest.raises(ValueError):
        eng.DynamicScale(backoff_factor=2.0)
    # S and 1/S must both be finite nonzero f32 values
    for scale in (2.0**128, 2.0**-128, 2.0**200, 2.0**-200):
        with pytest.raises(ValueError):
            eng.ConstantScale(scale)
    assert eng.ConstantScale(2.0**127).scale == 2.0**127
    assert eng.ConstantScale(2.0**-127).scale == 2.0**-127


def test_dynamic_scale_backoff_to_zero_raises():
    sc = eng.DynamicScale(init_scale=2.0**-1074)
    with pytest.raises(eng.NumericalError):
        sc.update(True)


def test_policy_validation():
    f32_acc16 = nn.PrecisionPolicy(DType.F32, AccumMode.ACC16)
    with pytest.raises(ValueError):
        eng.TrainingPolicy(f32_acc16)
    with pytest.raises(ValueError):
        eng.TrainingPolicy(f32_acc16, scaler=eng.ConstantScale(8.0))
    with pytest.raises(ValueError):
        eng.TrainingPolicy(use_master=False)
    with pytest.raises(ValueError):
        eng.TrainingPolicy(helpers.MP_POLICY, clip_threshold=0.0)
    assert eng.TrainingPolicy().precision.compute_dtype is DType.F32
    assert eng.TrainingPolicy(helpers.MP_POLICY).precision.compute_dtype is DType.F16
    reference = eng.TrainingPolicy(scaler=eng.ConstantScale(8.0))
    assert reference.precision.compute_dtype is DType.F32


# --- sgd_step ----------------------------------------------------------------

def test_sgd_plain_and_momentum_closed_form():
    model, params = tiny_model(seed=2)
    w0 = params["0.weight"].master.data.copy()
    g = {k: np.full(p.master.shape, 0.25, np.float32) for k, p in params.items()}

    eng.sgd_step(params, g, lr=0.1, momentum=0.0)
    assert np.allclose(params["0.weight"].master.data, w0 - 0.1 * 0.25)

    model, params = tiny_model(seed=2)
    w0 = params["0.weight"].master.data.copy()
    eng.sgd_step(params, g, lr=0.1, momentum=0.9)
    w1 = params["0.weight"].master.data.copy()
    assert np.allclose(w1, w0 - 0.1 * 0.25)
    eng.sgd_step(params, g, lr=0.1, momentum=0.9)
    # second update is g*(1 + 0.9) in plain-momentum mode
    assert np.allclose(params["0.weight"].master.data,
                       w1 - 0.1 * 0.25 * 1.9, atol=1e-7)


def test_sgd_nesterov_differs():
    _, pa = tiny_model(seed=3)
    _, pb = tiny_model(seed=3)
    g = {k: np.full(p.master.shape, 0.25, np.float32) for k, p in pa.items()}
    eng.sgd_step(pa, g, lr=0.1, momentum=0.9, nesterov=False)
    eng.sgd_step(pb, g, lr=0.1, momentum=0.9, nesterov=True)
    assert not np.array_equal(pa["0.weight"].master.data,
                              pb["0.weight"].master.data)
    # nesterov first step: update = g + m*g = 1.9 g
    _, pc = tiny_model(seed=3)
    expected = pc["0.weight"].master.data - np.float32(0.1) * (0.25 + 0.9 * 0.25)
    assert np.allclose(pb["0.weight"].master.data, expected)


def test_sgd_f32_small_updates_accumulate():
    # ratio 2^20 between weight and update: swamped in f16, fine in f32
    model, params = tiny_model(seed=4)
    p = params["0.weight"]
    p.master = T.store(np.ones(p.master.shape, np.float32), DType.F32)
    g = {k: np.zeros(q.master.shape, np.float32) for k, q in params.items()}
    g["0.weight"] = np.full(p.master.shape, 2.0**-20, np.float32)
    eng.sgd_step(params, g, lr=1.0, momentum=0.0)
    assert (params["0.weight"].master.data == np.float32(1.0) - np.float32(2.0**-20)).all()


@pytest.mark.parametrize("lr,momentum", [(1e-50, 0.0), (0.1, 0.99999999)])
def test_sgd_checks_lr_and_momentum_as_f32(lr, momentum):
    # 1e-50 rounds to f32 0 and 0.99999999 to f32 1.0
    _, params = tiny_model(seed=5)
    g = {k: np.full(p.master.shape, 0.5, np.float32) for k, p in params.items()}
    with pytest.raises(ValueError):
        eng.sgd_step(params, g, lr=lr, momentum=momentum)


def test_sgd_rejects_nonfinite():
    _, params = tiny_model(seed=5)
    g = {k: np.full(p.master.shape, np.nan, np.float32) for k, p in params.items()}
    with pytest.raises(ValueError):
        eng.sgd_step(params, g, lr=0.1)


# --- train_step --------------------------------------------------------------

def test_train_step_scaled_matches_fp32_reference():
    # one-layer weight-only model: a single step under constant S=8
    # lands within 2^-10 of the fp32 reference, element-wise.  (A
    # zero-initialized bias would be all f16 gradient noise after one
    # step, which is why the reference claim is about weights.)
    def build():
        model = nn.Model([nn.Linear(4, 2, bias=False), nn.MeanSquaredError()])
        return model, eng.make_parameters(model, 6)

    x, t = healthy_batch(seed=6)

    model_a, params_a = build()
    rep_a = eng.train_step(model_a, params_a, x, t,
                           eng.TrainingPolicy(), lr=0.1)
    model_b, params_b = build()
    policy_b = eng.TrainingPolicy(helpers.MP_POLICY, scaler=eng.ConstantScale(8.0))
    rep_b = eng.train_step(model_b, params_b, x, t, policy_b, lr=0.1)

    assert not rep_a.skipped and not rep_b.skipped
    for k in params_a:
        ref = params_a[k].master.data
        got = params_b[k].master.data
        assert (np.abs(got - ref) / np.abs(ref)).max() < 2.0**-10


@pytest.mark.parametrize("precision", [nn.F32_POLICY, helpers.MP_POLICY],
                         ids=["fp32", "mp"])
def test_train_step_rejects_ndarray_inputs_and_targets(precision):
    # an ndarray's buffer would be read as storage bits: under fp32 the
    # labels [2,2,1,1] below trained as other labels, with no error
    model, params = tiny_model(4, 4, loss="softmax")
    x, _ = healthy_batch(4, 4, n=4)
    labels = np.array([2, 2, 1, 1])
    before = masters_snapshot(params)
    with pytest.raises(TypeError, match="ndarray"):
        eng.train_step(model, params, x, labels, eng.TrainingPolicy(precision), lr=0.1)
    with pytest.raises(TypeError, match="ndarray"):
        eng.train_step(model, params, x.data, T.store(labels.astype(np.float32), DType.F32),
                       eng.TrainingPolicy(precision), lr=0.1)
    after = masters_snapshot(params)
    assert all((after[k] == before[k]).all() for k in before)


def test_train_step_overflow_skips_and_halves_scale():
    # 256 * 256 = 65536 overflows the f16 activation store; the inf
    # propagates into the weight gradients
    model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
    params = {"0.weight": eng.Parameter("0.weight",
                                        helpers.from_values([1, 1], DType.F32, [256.0]))}
    policy = eng.TrainingPolicy(helpers.MP_POLICY,
                                scaler=eng.DynamicScale(init_scale=1024.0))
    x = helpers.from_values([1, 1], DType.F32, [256.0])
    t = helpers.from_values([1, 1], DType.F32, [0.0])

    before_master = masters_snapshot(params)
    before_shadow = shadows_snapshot(params)
    rep = eng.train_step(model, params, x, t, policy, lr=0.1, iteration=7)

    assert rep.overflow and rep.skipped
    assert policy.scaler.scale == 512.0
    assert np.array_equal(params["0.weight"].master.data, before_master["0.weight"])
    assert np.array_equal(params["0.weight"].shadow.data, before_shadow["0.weight"])
    assert rep.iteration == 7


def test_train_step_constant_scale_overflow_warns_and_skips():
    model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
    params = {"0.weight": eng.Parameter("0.weight",
                                        helpers.from_values([1, 1], DType.F32, [256.0]))}
    policy = eng.TrainingPolicy(helpers.MP_POLICY, scaler=eng.ConstantScale(8.0))
    x = helpers.from_values([1, 1], DType.F32, [256.0])
    t = helpers.from_values([1, 1], DType.F32, [0.0])
    before = masters_snapshot(params)
    with pytest.warns(UserWarning):
        rep = eng.train_step(model, params, x, t, policy, lr=0.1)
    assert rep.skipped
    assert policy.scaler.scale == 8.0
    assert np.array_equal(params["0.weight"].master.data, before["0.weight"])


def test_growth_after_clean_steps():
    model, params = tiny_model(seed=8)
    x, t = healthy_batch(seed=8)
    policy = eng.TrainingPolicy(helpers.MP_POLICY, scaler=eng.DynamicScale(
        init_scale=1024.0, growth_interval=50))
    for i in range(49):
        rep = eng.train_step(model, params, x, t, policy, lr=0.01, iteration=i)
        assert not rep.overflow
        assert policy.scaler.scale == 1024.0
    eng.train_step(model, params, x, t, policy, lr=0.01, iteration=49)
    assert policy.scaler.scale == 2048.0


def test_swamping_ablation_fp16_updates_stall():
    # weight 1.0, per-step update 2^-12: f16 swamps it, f32 master does not
    def build(use_master):
        model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
        params = {"0.weight": eng.Parameter(
            "0.weight", helpers.from_values([1, 1], DType.F32, [1.0]))}
        return model, params

    update = 2.0**-12
    steps = 50

    model, params = build(use_master=False)
    policy = eng.TrainingPolicy(helpers.MP_POLICY, use_master=False)
    start_bits = params["0.weight"].shadow.data.copy()
    g = {"0.weight": np.array([[-update]], np.float32)}  # descend -> +update
    for _ in range(steps):
        eng.sgd_step(params, g, lr=1.0, momentum=0.0, use_master=policy.use_master)
    assert np.array_equal(params["0.weight"].shadow.data, start_bits)

    model, params = build(use_master=True)
    for _ in range(steps):
        eng.sgd_step(params, g, lr=1.0, momentum=0.0, use_master=True)
    expected = np.float32(1.0) + np.float32(steps) * np.float32(update)
    assert params["0.weight"].master.data[0, 0] == pytest.approx(float(expected), abs=1e-7)


def test_preservation_band_with_scale_8():
    # magnitudes in [2^-27, 2^-25]: all lost at S=1, all kept at S=8
    rng = np.random.default_rng(9)
    mags = rng.uniform(2.0**-27, 2.0**-25, 4096).astype(np.float32)
    signs = rng.choice([-1.0, 1.0], 4096).astype(np.float32)
    vals = mags * signs

    s1 = T.store(vals, DType.F16)
    assert (s1.data & 0x7FFF == 0).all()

    s8 = T.store(vals * np.float32(8.0), DType.F16)
    assert (s8.data & 0x7FFF != 0).all()


def test_clipping_operates_on_unscaled_gradients():
    x, t = healthy_batch(seed=10)
    clip = 0.05  # well below the natural norm so clipping engages

    model_a, params_a = tiny_model(seed=10)
    pol_a = eng.TrainingPolicy(scaler=eng.ConstantScale(1.0),
                               clip_threshold=clip)
    model_b, params_b = tiny_model(seed=10)
    pol_b = eng.TrainingPolicy(scaler=eng.ConstantScale(1024.0),
                               clip_threshold=clip)
    for i in range(5):
        ra = eng.train_step(model_a, params_a, x, t, pol_a, lr=0.1, iteration=i)
        rb = eng.train_step(model_b, params_b, x, t, pol_b, lr=0.1, iteration=i)
        assert ra.grad_norm > clip  # clipping was actually exercised
    for k in params_a:
        a = params_a[k].master.data
        b = params_b[k].master.data
        assert np.abs(a - b).max() <= 4 * np.finfo(np.float32).eps * np.abs(a).max() + 1e-9


def test_clipped_step_computes_global_norm_once(monkeypatch):
    calls = []
    norm = eng.grad_global_norm
    monkeypatch.setattr(eng, "grad_global_norm",
                        lambda unscaled: calls.append(1) or norm(unscaled))
    model, params = tiny_model(seed=10)
    x, t = healthy_batch(seed=10)
    policy = eng.TrainingPolicy(clip_threshold=0.05)
    for i in range(3):
        report = eng.train_step(model, params, x, t, policy, lr=0.1, iteration=i)
        assert report.grad_norm > 0.05 and len(calls) == i + 1


def test_nonfinite_loss_in_baseline_raises():
    # f32 precision raises under any scaler: the loss is computed before
    # scaling, so only broken numerics make it non-finite
    x = helpers.from_values([1, 1], DType.F32, [1e30])
    t = helpers.from_values([1, 1], DType.F32, [0.0])
    for policy in (eng.TrainingPolicy(),
                   eng.TrainingPolicy(scaler=eng.ConstantScale(8.0))):
        model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
        params = {"0.weight": eng.Parameter(
            "0.weight", helpers.from_values([1, 1], DType.F32, [1e30]))}
        with pytest.raises(eng.NumericalError):
            eng.train_step(model, params, x, t, policy, lr=0.1)


def test_step_csv_writer(tmp_path):
    path = tmp_path / "steps.csv"
    rep = eng.StepReport(3, 0.5, False, False, 8.0, 1.25)
    with eng.StepCsvWriter(path) as w:
        w.write(rep)
    text = path.read_text().splitlines()
    assert text[0] == "iteration,loss,scale,overflow,skipped,grad_norm"
    assert text[1] == "3,0.5,8.0,0,0,1.25"


def test_checkpoint_roundtrip(tmp_path):
    model, params = tiny_model(seed=11)
    x, t = healthy_batch(seed=11)
    for i in range(3):
        eng.train_step(model, params, x, t, eng.TrainingPolicy(),
                       lr=0.1, momentum=0.9, iteration=i)
    path = tmp_path / "model.ckpt"
    eng.save_checkpoint(path, model, params)

    model2, params2 = eng.load_checkpoint(path)
    assert model2.spec_strings() == model.spec_strings()
    for k, p in params.items():
        assert helpers.bits_equal(p.master, params2[k].master)
        assert np.array_equal(p.momentum_buf, params2[k].momentum_buf)

    # training continues identically from the restored state
    r1 = eng.train_step(model, params, x, t, eng.TrainingPolicy(),
                        lr=0.1, momentum=0.9, iteration=3)
    r2 = eng.train_step(model2, params2, x, t, eng.TrainingPolicy(),
                        lr=0.1, momentum=0.9, iteration=3)
    assert r1.loss == r2.loss
    for k in params:
        assert helpers.bits_equal(params[k].master, params2[k].master)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT\nEND\n")
    with pytest.raises(ValueError):
        eng.load_checkpoint(path)

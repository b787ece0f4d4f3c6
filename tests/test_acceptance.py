"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION nn PASS/FAIL line (run with -s or
-rA to see them) and enforces its stated tolerance exactly; nothing is
deferred to later calibration.  The two long criteria (loss-scaling
rescue, end-to-end parity) also enforce their wall-clock budgets.
"""

import functools
import math
import os
import struct
import time

import numpy as np
import pytest

from mptrain import binary16 as b16
from mptrain import diagnostics as diag
from mptrain import io_cli
from mptrain import mp_engine as eng
from mptrain import nn
from mptrain import tensor as T
from mptrain.io_cli import Config, RunConfig
from mptrain.tensor import AccumMode, DType

import helpers
import oracles


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num:02d} FAIL - {title}")
                raise
            print(f"CRITERION {num:02d} PASS - {title}")
            return result
        return wrapper
    return deco


def f32_ulp_distance(a, b):
    def key(x):
        u = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32).astype(np.int64)
        mag = u & 0x7FFFFFFF
        return np.where(u & 0x80000000, -mag, mag)
    return np.abs(key(a) - key(b))


@pytest.fixture(scope="session")
def mnist_dir(tmp_path_factory):
    """Real IDX files if MPTRAIN_DATA_DIR points at them, else the
    deterministic surrogate dataset (generated once per session)."""
    env = os.environ.get(io_cli.DATA_DIR_ENV)
    if env and os.path.exists(os.path.join(env, "train-images-idx3-ubyte")):
        return env
    path = tmp_path_factory.mktemp("mnist_data")
    io_cli.generate_surrogate_mnist(path)
    return str(path)


# --------------------------------------------------------------------------
# 1. binary16 conversion equivalence against independent references.
# --------------------------------------------------------------------------

@criterion(1, "binary16 oracle equivalence, round trip, < 10 s")
def test_criterion_01_binary16_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20_26)

    boundaries = [0.0, -0.0, 2.0**-24, -(2.0**-24), 2.0**-25, -(2.0**-25),
                  2.0**-14, 65504.0, -65504.0, 65519.99609375, 65520.0,
                  -65520.0, 65536.0, 1.0, -1.0, float("inf"), float("-inf"),
                  float("nan"), 3.4028235e38, 1e-45, 2.0**-26, 2.0**-126]
    # every subnormal midpoint and grid point: k * 2^-25, k = 1..4096
    boundaries += [k * 2.0**-25 for k in range(1, 4097)]
    # overflow neighborhood on the f32 grid
    boundaries += [65504.0 + 0.5 * k for k in range(-8, 80)]
    x32 = np.array(boundaries, dtype=np.float32)
    ours = b16.from_f32_array(x32)
    assert np.array_equal(ours, oracles.half_from_f32_array(x32))
    for x, h in zip(x32.tolist(), ours.tolist()):
        assert h == oracles.half_from_float(x), f"boundary {x!r}: 0x{h:04X}"

    # one million random single-precision inputs: half from random bit
    # patterns (covers every regime incl. NaN/inf), half scale-random
    bits = rng.integers(0, 2**32, 500_000, dtype=np.uint32)
    from_bits = bits.view(np.float32)
    scales = np.concatenate([
        rng.normal(0, 1, 150_000), rng.normal(0, 1e-7, 150_000),
        rng.normal(0, 6e4, 150_000), rng.uniform(-2**-24, 2**-24, 50_000),
    ]).astype(np.float32)
    samples = np.concatenate([from_bits, scales])
    assert samples.size == 10**6

    arr = b16.from_f32_array(samples)
    mismatches = int((arr != oracles.half_from_f32_array(samples)).sum())
    assert mismatches == 0, f"{mismatches} mismatches vs the rounding oracle"
    assert (arr[np.isnan(samples)] == b16.CANONICAL_NAN).all()

    # round-trip identity over all 65536 patterns (NaNs to the canonical
    # one), rounding back through the array path and through the oracle
    patterns = np.arange(0x10000, dtype=np.uint16)
    nan = ((patterns & 0x7C00) == 0x7C00) & ((patterns & 0x3FF) != 0)
    want = np.where(nan, b16.CANONICAL_NAN, patterns)
    wide = b16.to_f32_array(patterns)
    assert np.array_equal(b16.from_f32_array(wide), want)
    assert np.array_equal(oracles.half_from_f32_array(wide), want)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 2. underflow boundary, exact.
# --------------------------------------------------------------------------

@criterion(2, "underflow boundary (0, 2^-25) -> +0, 2^-24 -> smallest subnormal")
def test_criterion_02_underflow_boundary():
    smallest_pos_f32 = struct.unpack("<f", struct.pack("<I", 1))[0]
    for x in [smallest_pos_f32, 1e-30, 2.0**-30, 2.0**-26, 2.0**-25 * 0.999,
              2.0**-25]:
        assert 0 < x <= 2.0**-25
        assert helpers.half_bits(x) == 0x0000, repr(x)
    just_above = np.nextafter(np.float32(2.0**-25), np.float32(1.0))
    assert helpers.half_bits(just_above) == 0x0001
    assert helpers.half_bits(2.0**-24) == 0x0001
    assert helpers.half_widen(0x0001) == 2.0**-24
    assert helpers.half_bits(-(2.0**-26)) == 0x8000  # signed zero


# --------------------------------------------------------------------------
# 3. swamping: fp16 updates stall at ratio 4096, fp32 master accumulates.
# --------------------------------------------------------------------------

@criterion(3, "swamping: 1000 updates of 2^-12 against weight 1.0")
def test_criterion_03_swamping():
    update = 2.0**-12
    grad = {"w": np.array([[-update]], dtype=np.float32)}

    p16 = {"w": eng.Parameter("w", helpers.from_values([1, 1], DType.F32, [1.0]))}
    start_bits = p16["w"].shadow.data.copy()
    for _ in range(1000):
        eng.sgd_step(p16, grad, lr=1.0, momentum=0.0, use_master=False)
    assert np.array_equal(p16["w"].shadow.data, start_bits), \
        "fp16-only updates should leave the weight bit-identical"

    p32 = {"w": eng.Parameter("w", helpers.from_values([1, 1], DType.F32, [1.0]))}
    for _ in range(1000):
        eng.sgd_step(p32, grad, lr=1.0, momentum=0.0, use_master=True)
    expected = np.float32(1.0 + 1000 * update)
    got = p32["w"].master.data.reshape(())
    assert f32_ulp_distance(got, expected).max() <= 4


# --------------------------------------------------------------------------
# 4. accumulation precision on the 4096-ones dot product.
# --------------------------------------------------------------------------

@criterion(4, "dot of 4096 ones: 2048 under Acc16, 4096 under Acc32")
def test_criterion_04_accumulation():
    row = helpers.full([1, 4096], DType.F16, 1.0)
    col = helpers.full([4096, 1], DType.F16, 1.0)
    assert helpers.item(T.store(T.matmul(row, col, AccumMode.ACC16), DType.F16)) == 2048.0
    assert helpers.item(T.store(T.matmul(row, col, AccumMode.ACC32), DType.F16)) == 4096.0


# --------------------------------------------------------------------------
# 5. loss-scaling rescue on the constructed underflow task.
# --------------------------------------------------------------------------

UNDERFLOW_CONFIG = """
[run]
task = synthetic_regress_small_grads
seed = 11
epochs = 40
batch_size = 128
lr = 0.5
momentum = 0.0
output_dir = {out}

[policy]
preset = {preset}
loss_scale = 8
"""


@criterion(5, "loss-scaling rescue: S=1 diverges from baseline, S=8 matches")
def test_criterion_05_loss_scaling_rescue(tmp_path):
    start = time.perf_counter()

    # the defining property first: under S=1 the stored activation
    # gradients overwhelmingly sit below 2^-24 (flushed to zero)
    bundle = io_cli.gen_underflow_task(11)
    model = nn.model_from_specs(bundle.default_specs)
    params = eng.make_parameters(model, 11)
    for name, arr in bundle.init_overrides.items():
        params[name] = eng.Parameter(name, T.store(arr, DType.F32))
    captured = {}
    x = T.take(bundle.train.inputs, np.arange(helpers.UNDERFLOW_BATCH_SIZE))
    y = T.take(bundle.train.labels, np.arange(helpers.UNDERFLOW_BATCH_SIZE))
    eng.train_step(model, params, x, y,
                   eng.TrainingPolicy(helpers.MP_POLICY, scaler=eng.ConstantScale(1.0)),
                   lr=0.5, observer=lambda i, g, u: captured.update(g=g))
    act = diag.merged(captured["g"].activations)
    below = act.fraction_zero() + act.fraction_below(-24)
    assert below >= 0.5, f"only {below:.2%} of activation grads under 2^-24"

    results = {}
    for preset in ("fp32", "mp", "mp_noscale"):
        cfg = Config.parse(UNDERFLOW_CONFIG.format(
            out=tmp_path / preset, preset=preset))
        results[preset] = io_cli.run(RunConfig.from_config(cfg))

    base = results["fp32"]
    rescued = results["mp"]
    unscaled = results["mp_noscale"]

    assert unscaled.final_val_loss > 2.0 * base.final_val_loss, \
        (f"S=1 arm reached {unscaled.final_val_loss:.3g} vs baseline "
         f"{base.final_val_loss:.3g}; expected a >2x failure")
    rel = abs(rescued.final_val_loss - base.final_val_loss) / base.final_val_loss
    assert rel <= 0.02, f"S=8 loss off baseline by {rel:.2%} (> 2%)"
    acc_gap = abs(rescued.final_val_acc - base.final_val_acc)
    assert acc_gap <= 0.01, f"S=8 accuracy gap {acc_gap:.2%} (> 1%)"

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.0f}s"


# --------------------------------------------------------------------------
# 6. end-to-end parity on the MNIST-format task.
# --------------------------------------------------------------------------

MNIST_CONFIG = """
[run]
task = mnist
seed = 5
epochs = 5
batch_size = 128
lr = 0.1
momentum = 0.9
data_dir = {data}
output_dir = {out}

[model]
layers = Linear(784,256,bias=true); ReLU; Linear(256,10,bias=true); SoftmaxCrossEntropy

[policy]
preset = {preset}
"""


@criterion(6, "end-to-end parity: MP within 1% test accuracy of fp32, < 10 min")
def test_criterion_06_end_to_end_parity(tmp_path, mnist_dir):
    start = time.perf_counter()
    results = {}
    for preset in ("fp32", "mp"):
        cfg = Config.parse(MNIST_CONFIG.format(
            data=mnist_dir, out=tmp_path / preset, preset=preset))
        results[preset] = io_cli.run(RunConfig.from_config(cfg))

    base, mp = results["fp32"], results["mp"]
    assert base.final_val_acc > 0.90, \
        f"baseline failed to learn the task ({base.final_val_acc:.2%})"
    gap = abs(mp.final_val_acc - base.final_val_acc)
    assert gap <= 0.010, (f"accuracy gap {gap:.4f} exceeds 1% absolute "
                          f"(fp32 {base.final_val_acc:.4f}, mp {mp.final_val_acc:.4f})")

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.0f}s"


# --------------------------------------------------------------------------
# 7. master-copy ablation at a small learning rate.
# --------------------------------------------------------------------------

ABLATION_CONFIG = """
[run]
task = synthetic_classify
seed = 7
epochs = 40
batch_size = 32
lr = 0.0005
momentum = 0.0
output_dir = {out}

[policy]
preset = {preset}
"""

# gap threshold frozen from the construction-time fp32-vs-nomaster
# oracle run (observed ratio 2.7)
ABLATION_LOSS_RATIO_THRESHOLD = 1.5


@criterion(7, "master-copy ablation: no-master stalls, with-master matches")
def test_criterion_07_master_copy_ablation(tmp_path):
    # premise check: at this lr the typical weight/update ratio is past
    # the 2048:1 swamping threshold for every weight matrix
    bundle = io_cli.task_synthetic_classify(7)
    model = nn.model_from_specs(bundle.default_specs)
    params = eng.make_parameters(model, 7)
    seen = {}
    x = T.take(bundle.train.inputs, np.arange(32))
    y = T.take(bundle.train.labels, np.arange(32))
    eng.train_step(model, params, x, y,
                   eng.TrainingPolicy(helpers.MP_POLICY, use_master=False), lr=0.0005,
                   observer=lambda i, g, u: seen.update(u))
    for name in ("0.weight", "2.weight"):
        w = np.abs(params[name].master.data.reshape(-1))
        g = np.abs(seen[name].reshape(-1)) * 0.0005
        ratio = np.median(w[g > 0] / g[g > 0])
        assert ratio > 2048, f"{name}: median weight/update ratio {ratio:.0f}"

    results = {}
    for preset in ("fp32", "mp", "mp_nomaster"):
        cfg = Config.parse(ABLATION_CONFIG.format(out=tmp_path / preset,
                                                  preset=preset))
        results[preset] = io_cli.run(RunConfig.from_config(cfg))

    base, with_master, without = (results["fp32"], results["mp"],
                                  results["mp_nomaster"])
    ratio = without.final_val_loss / base.final_val_loss
    assert ratio >= ABLATION_LOSS_RATIO_THRESHOLD, \
        f"no-master arm only {ratio:.2f}x worse than baseline"
    acc_gap = abs(with_master.final_val_acc - base.final_val_acc)
    assert acc_gap <= 0.01, f"with-master accuracy gap {acc_gap:.2%}"


# --------------------------------------------------------------------------
# 8. dynamic scaler state machine, exact.
# --------------------------------------------------------------------------

@criterion(8, "dynamic scaler: skip + halve on overflow, double after 2000 clean")
def test_criterion_08_dynamic_scaler():
    # natural overflow: 256*256 = 65536 saturates the f16 store to inf
    model = nn.Model([nn.Linear(1, 1, bias=False), nn.MeanSquaredError()])
    params = {"0.weight": eng.Parameter(
        "0.weight", helpers.from_values([1, 1], DType.F32, [256.0]))}
    policy = eng.TrainingPolicy(helpers.MP_POLICY,
                                scaler=eng.DynamicScale(init_scale=1024.0))
    x = helpers.from_values([1, 1], DType.F32, [256.0])
    t = helpers.from_values([1, 1], DType.F32, [0.0])
    master_before = params["0.weight"].master.data.copy()
    shadow_before = params["0.weight"].shadow.data.copy()
    report = eng.train_step(model, params, x, t, policy, lr=0.1)
    assert report.overflow and report.skipped
    assert policy.scaler.scale == 512.0
    assert np.array_equal(params["0.weight"].master.data, master_before)
    assert np.array_equal(params["0.weight"].shadow.data, shadow_before)

    # 2000 consecutive clean steps double the scale, exactly at step 2000
    model = nn.Model([nn.Linear(2, 1, bias=False), nn.MeanSquaredError()])
    params = {"0.weight": eng.Parameter(
        "0.weight", helpers.from_values([2, 1], DType.F32, [0.5, -0.25]))}
    policy = eng.TrainingPolicy(helpers.MP_POLICY,
                                scaler=eng.DynamicScale(init_scale=1024.0))
    assert policy.scaler.growth_interval == 2000
    x = helpers.from_values([4, 2], DType.F32, [1.0, 0.5, -0.5, 1.0, 0.25, -1.0, 0.75, 0.125])
    t = helpers.from_values([4, 1], DType.F32, [0.1, -0.2, 0.05, 0.3])
    for i in range(1999):
        r = eng.train_step(model, params, x, t, policy, lr=0.01, iteration=i)
        assert not r.overflow
        assert policy.scaler.scale == 1024.0
        assert policy.scaler.steps_since_overflow == i + 1
    r = eng.train_step(model, params, x, t, policy, lr=0.01, iteration=1999)
    assert not r.overflow
    assert policy.scaler.scale == 2048.0
    assert policy.scaler.steps_since_overflow == 0


# --------------------------------------------------------------------------
# 9. analytic gradients against double-precision central differences.
# --------------------------------------------------------------------------

@criterion(9, "gradient correctness: <1e-4 feedforward, <1e-3 LSTM unroll")
def test_criterion_09_gradient_correctness():
    rng = np.random.default_rng(9)

    ff = nn.Model([nn.Linear(4, 3), nn.Tanh(), nn.Linear(3, 2),
                   nn.SoftmaxCrossEntropy()])
    helpers.bind_f32(ff, ff.init_values(9))
    x = T.store(rng.normal(0, 1, (6, 4)).astype(np.float32), DType.F32)
    labels = T.store(rng.integers(0, 2, 6).astype(np.float32), DType.F32)
    err = oracles.grad_check(ff, x, labels)
    assert err < 1e-4, f"feedforward max relative error {err:.2e}"

    conv = nn.Model([nn.Conv2d(2, 3, 3, 3, stride=1, pad=1), nn.LeakyReLU(0.1),
                     nn.MeanSquaredError()])
    helpers.bind_f32(conv, conv.init_values(10))
    cx = T.store(rng.normal(0, 1, (2, 2, 5, 5)).astype(np.float32), DType.F32)
    ct = T.store(rng.normal(0, 1, (2, 3, 5, 5)).astype(np.float32), DType.F32)
    err = oracles.grad_check(conv, cx, ct)
    assert err < 1e-4, f"conv max relative error {err:.2e}"

    lstm = nn.Model([nn.LSTMCell(3, 4), nn.Linear(4, 2),
                     nn.SoftmaxCrossEntropy()])
    helpers.bind_f32(lstm, lstm.init_values(11))
    sx = T.store(rng.normal(0, 1, (5, 3, 3)).astype(np.float32), DType.F32)
    slabels = T.store(rng.integers(0, 2, 5).astype(np.float32), DType.F32)
    err = oracles.grad_check(lstm, sx, slabels)
    assert err < 1e-3, f"3-step LSTM max relative error {err:.2e}"


# --------------------------------------------------------------------------
# 10. diagnostics: exact recounts and instrumentation purity.
# --------------------------------------------------------------------------

@criterion(10, "diagnostics: exact bin recounts, hooks leave training untouched")
def test_criterion_10_diagnostics_fidelity(tmp_path):
    rng = np.random.default_rng(10)
    for trial in range(100):
        scale = 10.0 ** rng.uniform(-9, 4)
        n = int(rng.integers(1, 400))
        vals = rng.normal(0, scale, n).astype(np.float32)
        dtype = DType.F16 if trial % 2 == 0 else DType.F32
        t = T.store(vals, dtype)
        h = diag.histogram(t)

        zero = nonfinite = 0
        bins = {}
        for v in t.widen().reshape(-1):
            v = float(v)
            if not math.isfinite(v):
                nonfinite += 1
            elif v == 0.0:
                zero += 1
            else:
                e = math.floor(math.log2(abs(v)))
                bins[e] = bins.get(e, 0) + 1
        assert (h.zero_count, h.bins, h.nonfinite_count, h.total) == \
            (zero, bins, nonfinite, n)

    config = """
[run]
task = synthetic_classify
seed = 3
epochs = 1
batch_size = 64
lr = 0.05
momentum = 0.9
output_dir = {out}
sample_every = {every}

[policy]
preset = mp
loss_scale = 8
"""
    plain = Config.parse(config.format(out=tmp_path / "plain", every=0))
    hooked = Config.parse(config.format(out=tmp_path / "hooked", every=8))
    io_cli.run(RunConfig.from_config(plain))
    io_cli.run(RunConfig.from_config(hooked))
    plain_bytes = (tmp_path / "plain" / "steps.csv").read_bytes()
    hooked_bytes = (tmp_path / "hooked" / "steps.csv").read_bytes()
    assert plain_bytes == hooked_bytes, "hooks changed the training metrics"
    assert any(f.startswith("hist_") for f in
               os.listdir(tmp_path / "hooked" / "histograms"))


# --------------------------------------------------------------------------
# 11. scale neutrality at the f32 reference level.
# --------------------------------------------------------------------------

@criterion(11, "scale neutrality: S in {8,128,32768} within 8 ulps of S=1")
def test_criterion_11_scale_neutrality():
    def one_step(scale):
        model = nn.Model([nn.Linear(4, 3), nn.Tanh(), nn.Linear(3, 2),
                          nn.SoftmaxCrossEntropy()])
        params = eng.make_parameters(model, 21)
        rng = np.random.default_rng(21)
        x = T.store(rng.normal(0, 1, (16, 4)).astype(np.float32), DType.F32)
        labels = T.store(rng.integers(0, 2, 16).astype(np.float32), DType.F32)
        policy = eng.TrainingPolicy(scaler=eng.ConstantScale(scale))
        report = eng.train_step(model, params, x, labels, policy,
                                lr=0.1, momentum=0.9)
        assert not report.skipped
        return {k: p.master.data.copy() for k, p in params.items()}

    reference = one_step(1.0)
    for s in (8.0, 128.0, 32768.0):
        stepped = one_step(s)
        for key in reference:
            dist = f32_ulp_distance(stepped[key], reference[key])
            assert dist.max() <= 8, \
                f"S={s}: {key} differs from S=1 by {dist.max()} ulps"

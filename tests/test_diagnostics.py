import math
import os

import numpy as np
import pytest

from mptrain import diagnostics as diag
from mptrain import mp_engine as eng
from mptrain import nn
from mptrain import tensor as T
from mptrain.tensor import DType

import helpers


def brute_force_bins(t):
    """Scalar recount, straight off the definition."""
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
    return zero, bins, nonfinite


def test_all_zero_tensor():
    h = diag.histogram(T.zeros([100], DType.F16))
    assert h.zero_count == 100 and not h.bins and h.total == 100
    assert h.fraction_zero() == 1.0


def test_known_bins():
    for dtype in (DType.F32, DType.F16):
        h = diag.histogram(helpers.from_values([3], dtype, [1.0, 1.5, 2.0]))
        assert h.bins == {0: 2, 1: 1}
        assert h.max_abs == 2.0


def test_bins_match_brute_force_f16():
    rng = np.random.default_rng(0)
    vals = np.concatenate([
        rng.normal(0, 1, 4000),
        rng.normal(0, 1e-6, 3000),  # drives sub-2^-14 and zero patterns
        rng.normal(0, 5000, 3000),
    ]).astype(np.float32)
    t = T.store(vals, DType.F16)
    h = diag.histogram(t)
    zero, bins, nonfinite = brute_force_bins(t)
    assert h.zero_count == zero
    assert h.bins == bins
    assert h.nonfinite_count == nonfinite
    assert min(h.bins) >= -24 and max(h.bins) <= 15


def test_bins_match_brute_force_f32_and_subnormals():
    rng = np.random.default_rng(1)
    vals = rng.normal(0, 1e-40, 500).astype(np.float32)  # f32 subnormals
    vals = np.concatenate([vals, rng.normal(0, 2, 500).astype(np.float32)])
    t = T.store(vals, DType.F32)
    h = diag.histogram(t)
    zero, bins, nonfinite = brute_force_bins(t)
    assert (h.zero_count, h.bins, h.nonfinite_count) == (zero, bins, nonfinite)


def test_nonfinite_counted():
    t = helpers.from_values([4], DType.F16, [float("inf"), float("nan"), 1.0, 0.0])
    h = diag.histogram(t)
    assert h.nonfinite_count == 2 and h.zero_count == 1 and h.bins == {0: 1}
    h.check()


def test_merged_sums_the_single_histograms():
    rng = np.random.default_rng(2)
    a = T.store(rng.normal(0, 1, 500).astype(np.float32), DType.F16)
    b = T.store(rng.normal(0, 1e-7, (20, 25)).astype(np.float32), DType.F16)
    c = helpers.from_values([4], DType.F16, [float("inf"), float("nan"), 0.0, -0.0])
    singles = [diag.histogram(t) for t in (a, b, c)]
    h = diag.merged([a, None, b, c])
    assert h.total == sum(s.total for s in singles) == 1004
    assert h.zero_count == sum(s.zero_count for s in singles)
    assert h.nonfinite_count == sum(s.nonfinite_count for s in singles) == 2
    exps = set().union(*(s.bins for s in singles))
    assert h.bins == {e: sum(s.bins.get(e, 0) for s in singles) for e in exps}
    assert h.max_abs == max(s.max_abs for s in singles)
    assert diag.merged([None, None]) is None


def test_constructed_zero_fraction():
    vals = np.zeros(100, dtype=np.float32)
    vals[:33] = 1.0  # 67% zeros
    h = diag.histogram(T.store(vals, DType.F16))
    assert h.fraction_zero() == pytest.approx(0.67)


def test_fraction_below():
    vals = np.array([2.0**-26, 2.0**-20, 1.0, 0.0], dtype=np.float32)
    h = diag.histogram(T.store(vals, DType.F32))
    assert h.fraction_below(-24) == pytest.approx(1 / 4)
    assert h.fraction_below(-27) == 0.0


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    t = T.store(rng.normal(0, 1e-5, 1000).astype(np.float32), DType.F16)
    h = diag.histogram(t)
    path = tmp_path / diag.csv_name("demo", "weight_grad", 40)
    assert path.name == "hist_demo_weight_grad_iter000040.csv"
    diag.write_csv(path, h)
    back = diag.read_csv(path)
    assert back.bins == h.bins
    assert back.zero_count == h.zero_count
    assert back.total == h.total


def test_hook_cadence_and_capture(tmp_path):
    model = nn.Model([nn.Linear(3, 2, bias=False), nn.MeanSquaredError()])
    params = eng.make_parameters(model, 0)
    rng = np.random.default_rng(4)
    x = T.store(rng.normal(0, 1, (8, 3)).astype(np.float32), DType.F32)
    t = T.store(rng.normal(0, 1, (8, 2)).astype(np.float32), DType.F32)
    hook = diag.SampleHook(tmp_path, "h")
    policy = eng.TrainingPolicy(helpers.MP_POLICY)
    for i in range(7):
        eng.train_step(model, params, x, t, policy, lr=0.05, iteration=i,
                       observer=hook if i % 3 == 0 else None)
    assert sorted(os.listdir(tmp_path)) == sorted(
        diag.csv_name("h", role, i)
        for role in ("weight_grad", "act_grad") for i in (0, 3, 6))
    weight = diag.read_csv(tmp_path / diag.csv_name("h", "weight_grad", 0))
    assert weight.total == 6  # one 3x2 weight grad
    act = diag.read_csv(tmp_path / diag.csv_name("h", "act_grad", 0))
    assert act.total == 8 * 3 + 8 * 2  # model-input and loss-input grads


def test_hook_purity_trajectories_identical(tmp_path):
    def run(observer):
        model = nn.Model([nn.Linear(4, 3), nn.Tanh(), nn.Linear(3, 2),
                          nn.SoftmaxCrossEntropy()])
        params = eng.make_parameters(model, 5)
        rng = np.random.default_rng(5)
        x = T.store(rng.normal(0, 1, (16, 4)).astype(np.float32), DType.F32)
        labels = T.store(rng.integers(0, 2, 16).astype(np.float32), DType.F32)
        policy = eng.TrainingPolicy(helpers.MP_POLICY, scaler=eng.ConstantScale(8.0))
        reports = []
        for i in range(10):
            reports.append(eng.train_step(model, params, x, labels, policy,
                                          lr=0.1, momentum=0.9, iteration=i,
                                          observer=observer))
        return reports, params

    plain, params_a = run(None)
    hooked, params_b = run(diag.SampleHook(tmp_path, "p"))
    assert plain == hooked
    for k in params_a:
        assert helpers.bits_equal(params_a[k].master, params_b[k].master)

import dataclasses
import gzip
import os
import struct
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrain import diagnostics as diag
from mptrain import io_cli
from mptrain import mp_engine as eng
from mptrain import nn
from mptrain import tensor as T
from mptrain.io_cli import Config, ConfigError, DataError, RunConfig

import helpers


BASE_CONFIG = """
[run]
task = synthetic_classify
seed = 3
epochs = 2
batch_size = 64
lr = 0.05
momentum = 0.9
output_dir = {out}

[policy]
preset = mp
loss_scale = 8
"""


# --- config parsing ----------------------------------------------------------

def test_config_parse_and_roundtrip():
    cfg = Config.parse("[run]\ntask = mnist  # comment\nseed=4\n\n[policy]\npreset = fp32\n")
    assert cfg.get("run", "task") == "mnist"
    assert cfg.get("run", "seed") == "4"
    again = Config.parse(cfg.to_text())
    assert again.to_text() == cfg.to_text()
    assert again.hash() == cfg.hash()


def test_config_error_diagnostics():
    with pytest.raises(ConfigError, match="line 2"):
        Config.parse("[run]\nnot a key value\n")
    with pytest.raises(ConfigError, match="line 1"):
        Config.parse("task = mnist\n")
    with pytest.raises(ConfigError, match="run.task"):
        RunConfig.from_config(Config.parse("[run]\noutput_dir = /tmp/x\n"))
    with pytest.raises(ConfigError, match="run.task"):
        RunConfig.from_config(Config.parse("[run]\ntask = bogus\noutput_dir = /tmp/x\n"))
    with pytest.raises(ConfigError, match="line 3: run.lr"):
        Config.parse("[run]\nlr = 0.1\nlr = 0.5\n")
    with pytest.raises(ConfigError, match="line 4: run.lr"):
        Config.parse("[run]\nlr = 0.1\n[run]\nlr = 0.7\n")


def test_config_typed_field_errors():
    text = "[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\nseed = abc\n"
    with pytest.raises(ConfigError, match="run.seed"):
        RunConfig.from_config(Config.parse(text))
    text = ("[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\n"
            "[model]\nlayers = Linear(2,nope)\n")
    with pytest.raises(ConfigError, match="model.layers"):
        RunConfig.from_config(Config.parse(text))


def test_config_range_validation():
    base = "[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\n"
    for bad in ("epochs = 0", "batch_size = 0", "lr = 0", "lr = -1",
                "momentum = 1.0", "sample_every = -1"):
        with pytest.raises(ConfigError):
            RunConfig.from_config(Config.parse(base + bad + "\n"))


def test_policy_presets():
    def build(preset, extra=""):
        text = (f"[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\n"
                f"[policy]\npreset = {preset}\n{extra}")
        return RunConfig.from_config(Config.parse(text)).policy

    p = build("fp32")
    assert p.precision.compute_dtype is T.DType.F32
    p = build("mp", "loss_scale = 8\n")
    assert p.precision.compute_dtype is T.DType.F16 and p.scaler.scale == 8.0
    assert p.precision.accum is T.AccumMode.ACC32
    p = build("mp_noscale", "loss_scale = 8\n")
    assert p.scaler.scale == 1.0
    p = build("mp_nomaster", "accum = acc16\n")
    assert p.use_master is False and p.precision.compute_dtype is T.DType.F16
    assert p.precision.accum is T.AccumMode.ACC16
    with pytest.raises(ConfigError):
        build("bogus")
    unset = "[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\n"
    p = RunConfig.from_config(Config.parse(unset)).policy
    assert p.precision.compute_dtype is T.DType.F32


def test_fp32_preset_keeps_clip_threshold():
    text = ("[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\n"
            "[policy]\npreset = fp32\nclip_threshold = 1.0\n")
    p = RunConfig.from_config(Config.parse(text)).policy
    assert p.precision.compute_dtype is T.DType.F32
    assert p.clip_threshold == 1.0


def test_policy_dynamic_scaler_fields():
    text = ("[run]\ntask = synthetic_classify\noutput_dir = /tmp/x\n"
            "[policy]\npreset = mp\nloss_scale = dynamic\n"
            "init_scale = 1024\ngrowth_interval = 10\n")
    p = RunConfig.from_config(Config.parse(text)).policy
    assert p.scaler.dynamic and p.scaler.scale == 1024.0
    assert p.scaler.growth_interval == 10


_VALUE_TEXT = st.one_of(
    st.text(max_size=12), st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr), st.sampled_from(
        ["true", "FALSE", "yes", "0", "dynamic", "acc16", "mp", "mnist", "2**3",
         "nan", "-inf", "1e-50", "0.99999999", "Linear(16,4); SoftmaxCrossEntropy"]))


@settings(max_examples=500, deadline=None)
@given(key=st.sampled_from(sorted(io_cli.FIELDS)), text=_VALUE_TEXT,
       preset=st.sampled_from(io_cli.PRESETS))
def test_config_fuzz_one_field_returns_or_raises_config_error(key, text, preset):
    cfg = Config.parse(BASE_CONFIG.format(out="/nonexistent/out"))
    cfg.set("policy.preset", preset)
    cfg.set(key, text)
    try:
        RunConfig.from_config(cfg)
    except ConfigError:
        pass


# --- IDX ----------------------------------------------------------------------

def test_idx_write_read_roundtrip(tmp_path):
    images = (np.arange(2 * 28 * 28) % 251).astype(np.uint8).reshape(2, 28, 28)
    labels = np.array([3, 7], dtype=np.uint8)
    for split in ("train", "t10k"):
        io_cli.write_idx(tmp_path / f"{split}-images-idx3-ubyte",
                         io_cli.IDX_IMAGES_MAGIC, images)
        io_cli.write_idx(tmp_path / f"{split}-labels-idx1-ubyte",
                         io_cli.IDX_LABELS_MAGIC, labels)

    train, val = io_cli.load_mnist(tmp_path)
    assert train.inputs.shape == (2, 28, 28)
    assert train.labels.widen().tolist() == [3.0, 7.0]
    assert train.inputs.data.max() <= 1.0


def test_idx_bad_magic_reports_expected_and_found(tmp_path):
    path = tmp_path / "train-images-idx3-ubyte"
    path.write_bytes(struct.pack(">IIII", 0x00000999, 1, 28, 28) + b"\0" * 784)
    with pytest.raises(DataError, match="0x00000803.*0x00000999"):
        io_cli._read_idx(path, io_cli.IDX_IMAGES_MAGIC)


def test_idx_truncated(tmp_path):
    path = tmp_path / "labels"
    path.write_bytes(struct.pack(">II", io_cli.IDX_LABELS_MAGIC, 100) + b"\0" * 10)
    with pytest.raises(DataError, match="truncated"):
        io_cli._read_idx(path, io_cli.IDX_LABELS_MAGIC)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 28, 28), dtype=np.uint8)
    for split, n_labels in (("train", 2), ("t10k", 3)):
        io_cli.write_idx(tmp_path / f"{split}-images-idx3-ubyte",
                         io_cli.IDX_IMAGES_MAGIC, images)
        io_cli.write_idx(tmp_path / f"{split}-labels-idx1-ubyte",
                         io_cli.IDX_LABELS_MAGIC, np.zeros(n_labels, dtype=np.uint8))
    with pytest.raises(DataError, match="3 inputs vs 2 labels"):
        io_cli.load_mnist(tmp_path)


def test_missing_data_dir():
    with pytest.raises(DataError):
        io_cli.load_mnist(None)
    with pytest.raises(DataError):
        io_cli.load_mnist("/nonexistent/place")


def test_surrogate_generator_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    io_cli.generate_surrogate_mnist(a, n_train=200, n_test=50)
    io_cli.generate_surrogate_mnist(b, n_train=200, n_test=50)
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    train, val = io_cli.load_mnist(a)
    assert train.size == 200 and val.size == 50
    labels = train.labels.widen().astype(int)
    assert labels.min() >= 0 and labels.max() <= 9


# --- tasks ---------------------------------------------------------------------

def test_synthetic_classify_bundle():
    bundle = io_cli.task_synthetic_classify(3)
    assert bundle.train.size == 4096 and bundle.val.size == 1024
    labels = bundle.train.labels.widen().astype(int)
    assert set(np.unique(labels)) <= {0, 1, 2, 3}
    # same seed reproduces bit-identically, different seed does not
    again = io_cli.task_synthetic_classify(3)
    assert helpers.bits_equal(bundle.train.inputs, again.train.inputs)
    other = io_cli.task_synthetic_classify(4)
    assert not helpers.bits_equal(bundle.train.inputs, other.train.inputs)


def test_underflow_task_construction():
    bundle = io_cli.gen_underflow_task(11)
    targets = bundle.train.labels.widen()
    nz = targets[targets != 0]
    assert np.allclose(nz, io_cli.UNDERFLOW_TARGET_SCALE)
    assert "2.weight" in bundle.init_overrides
    assert np.abs(bundle.init_overrides["2.weight"]).max() < 2.0**-20


def test_underflow_task_gradients_flush_at_scale_1():
    # the defining property: with no loss scaling, every activation
    # gradient element in the first step is below 2^-24 in magnitude
    bundle = io_cli.gen_underflow_task(11)
    from mptrain import nn
    model = nn.model_from_specs(bundle.default_specs)
    params = eng.make_parameters(model, 11)
    for name, arr in bundle.init_overrides.items():
        params[name] = eng.Parameter(name, T.store(arr, T.DType.F32))

    captured = {}
    def observer(it, grads, unscaled):
        captured["grads"] = grads

    bs = helpers.UNDERFLOW_BATCH_SIZE
    x = T.take(bundle.train.inputs, np.arange(bs))
    y = T.take(bundle.train.labels, np.arange(bs))
    policy = eng.TrainingPolicy(helpers.MP_POLICY, scaler=eng.ConstantScale(1.0))
    eng.train_step(model, params, x, y, policy, lr=0.5, observer=observer)

    act_h = diag.merged(captured["grads"].activations)
    assert act_h.fraction_zero() + act_h.fraction_below(-24) >= 0.5
    # nearly everything flushes; a sub-percent sliver rounds up to 2^-24
    assert act_h.fraction_zero() >= 0.99


# --- run / compare / determinism ------------------------------------------------

def test_run_produces_artifacts_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    r1 = io_cli.run(RunConfig.from_config(Config.parse(BASE_CONFIG.format(out=out1))))
    r2 = io_cli.run(RunConfig.from_config(Config.parse(BASE_CONFIG.format(out=out2))))

    for fname in ("steps.csv", "epochs.csv", "model.ckpt"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2, f"{fname} differs between identical runs"

    assert r1.final_val_acc == r2.final_val_acc
    assert (out1 / "manifest.txt").exists()
    steps = (out1 / "steps.csv").read_text().splitlines()
    assert steps[0] == eng.STEP_CSV_HEADER
    assert len(steps) == 1 + 2 * (4096 // 64)


def test_one_run_config_run_twice_gives_the_same_bytes(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path / "r1").replace(
        "loss_scale = 8", "loss_scale = dynamic\ninit_scale = 8\ngrowth_interval = 10")
    rc = RunConfig.from_config(Config.parse(text))
    io_cli.run(rc)
    io_cli.run(dataclasses.replace(rc, output_dir=str(tmp_path / "r2")))
    steps = [(tmp_path / d / "steps.csv").read_bytes() for d in ("r1", "r2")]
    assert steps[0] == steps[1]
    assert rc.policy.scaler.scale == 8.0


def test_run_with_sampling_hook_writes_histograms(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path / "hooked") + "\n"
    cfg = Config.parse(text)
    cfg.set("run.sample_every", "32")
    cfg.set("run.epochs", "1")
    io_cli.run(RunConfig.from_config(cfg))
    hist_dir = tmp_path / "hooked" / "histograms"
    run_id = cfg.hash()[:12]
    assert sorted(os.listdir(hist_dir)) == sorted(
        diag.csv_name(run_id, role, i)
        for role in ("weight_grad", "act_grad") for i in (0, 32))
    h = diag.read_csv(hist_dir / diag.csv_name(run_id, "weight_grad", 32))
    assert h.total > 0


def test_run_computes_input_grad_only_on_sampled_steps(tmp_path, monkeypatch):
    calls = []
    backward = nn.backward

    def spy(model, tape, scale, first_input_grad=True):
        calls.append(first_input_grad)
        return backward(model, tape, scale, first_input_grad=first_input_grad)

    monkeypatch.setattr(nn, "backward", spy)
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "hooked"))
    cfg.set("run.sample_every", "16")
    cfg.set("run.epochs", "1")
    io_cli.run(RunConfig.from_config(cfg))
    assert len(calls) == 4096 // 64
    assert [i for i, first in enumerate(calls) if first] == [0, 16, 32, 48]


def test_run_hook_does_not_change_metrics(tmp_path):
    plain_cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "plain"))
    hooked_cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "hooked"))
    hooked_cfg.set("run.sample_every", "16")
    io_cli.run(RunConfig.from_config(plain_cfg))
    io_cli.run(RunConfig.from_config(hooked_cfg))
    assert (tmp_path / "plain" / "steps.csv").read_bytes() == \
        (tmp_path / "hooked" / "steps.csv").read_bytes()


def test_compare_ablation_matrix_single_field(tmp_path):
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "cmp"))
    cfg.set("run.epochs", "1")
    rows = io_cli.compare(cfg, "policy.preset",
                          ["fp32", "mp", "mp_noscale", "mp_nomaster"])
    assert [r["variant"].split("=")[1] for r in rows] == \
        ["fp32", "mp", "mp_noscale", "mp_nomaster"]
    table = io_cli.format_compare_table(rows)
    assert "fp32" in table and "mp_nomaster" in table
    assert (tmp_path / "cmp" / "compare.csv").exists()
    for r in rows:
        assert np.isfinite(r["final_val_loss"])


def test_checkpoint_loadable_after_run(tmp_path):
    out = tmp_path / "ck"
    r = io_cli.run(RunConfig.from_config(Config.parse(BASE_CONFIG.format(out=out))))
    model, params = eng.load_checkpoint(r.checkpoint)
    assert "0.weight" in params
    assert model.spec_strings()[0].startswith("Linear(16,32")


# --- SVG -------------------------------------------------------------------------

def test_emit_plot(tmp_path):
    csv1 = tmp_path / "a" / "epochs.csv"
    csv2 = tmp_path / "b" / "epochs.csv"
    for p, base in ((csv1, 1.0), (csv2, 0.5)):
        p.parent.mkdir()
        with open(p, "w") as fh:
            fh.write("epoch,train_loss,val_loss,val_acc\n")
            for e in range(5):
                fh.write(f"{e},{base/(e+1)},{base/(e+2)},{0.5+0.1*e}\n")
    out = tmp_path / "plot.svg"
    io_cli.emit_plot([csv1, csv2], out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "val_loss" in text
    assert "<text" in text

    out2 = tmp_path / "acc.svg"
    io_cli.emit_plot([csv1], out2, metric="val_acc", logy=False, title="accuracy")
    assert "accuracy" in out2.read_text()

    out3 = tmp_path / "log.svg"
    io_cli.emit_plot([csv1, csv2], out3, logy=True)
    assert "<polyline" in out3.read_text()


def test_emit_plot_escapes_its_text(tmp_path):
    csv = tmp_path / "fp32 <&> mp" / "epochs.csv"
    csv.parent.mkdir()
    csv.write_text("epoch,loss<&>\n0,1.0\n1,0.5\n")
    out = tmp_path / "p.svg"
    assert io_cli.main(["plot", str(csv), "-o", str(out),
                        "--title", "loss <fp32 & mp>"]) == 0
    texts = [el.text for el in ElementTree.parse(out).iter()
             if el.tag.endswith("text")]
    assert {"loss <fp32 & mp>", "loss<&>", "fp32 <&> mp"} <= set(texts)


def test_emit_plot_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("epoch,val_loss\n")
    with pytest.raises(DataError):
        io_cli.emit_plot([bad], tmp_path / "x.svg")
    ok = tmp_path / "ok.csv"
    ok.write_text("epoch,val_loss\n0,1.0\n")
    with pytest.raises(DataError):
        io_cli.emit_plot([ok], tmp_path / "x.svg", metric="nope")


# --- CLI --------------------------------------------------------------------------

HALFDUMP_EDGES = [
    ("1e39", "pattern  = 0x7C00 (0b0_11111_0000000000)\n"
             "class    = infinity\n"
             "value    = inf\n"),
    ("-0", "pattern  = 0x8000 (0b1_00000_0000000000)\n"
           "class    = zero\n"
           "value    = -0.0\n"),
    # 2^-25 is a tie between +0 and 2^-24; it rounds to even, +0
    ("2.98023223876953125e-08", "pattern  = 0x0000 (0b0_00000_0000000000)\n"
                                "class    = zero\n"
                                "value    = 0.0\n"),
    ("nan", "pattern  = 0x7E00 (0b0_11111_1000000000)\n"
            "class    = nan\n"
            "value    = nan\n"),
    ("1e-6", "pattern  = 0x0011 (0b0_00000_0000010001)\n"
             "class    = subnormal\n"
             "value    = 1.0132789611816406e-06\n"
             "exponent = -20\n"),
]


def test_cli_halfdump(capsys):
    assert io_cli.main(["halfdump", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "0x3C00" in out and "normal" in out

    for arg, text in HALFDUMP_EDGES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e39's f32 overflow stays quiet
            assert io_cli.main(["halfdump", arg]) == 0
        assert capsys.readouterr() == (text, ""), arg

    assert io_cli.main(["halfdump", "not-a-number"]) == 1


def test_cli_train_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE_CONFIG.format(out=tmp_path / "cli_run")
                        .replace("epochs = 2", "epochs = 1"))
    assert io_cli.main(["train", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "final_val_loss" in out

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[run]\ntask = wrong\noutput_dir = /tmp/x\n")
    assert io_cli.main(["train", str(bad_cfg)]) == 1

    mnist_cfg = tmp_path / "mnist.cfg"
    mnist_cfg.write_text("[run]\ntask = mnist\noutput_dir = /tmp/x\n"
                         "data_dir = /nonexistent\n")
    assert io_cli.main(["train", str(mnist_cfg)]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    # a huge lr on the regression task blows the f32 loss to infinity
    # within a few steps; the baseline treats that as a hard error
    text = BASE_CONFIG.format(out=tmp_path / "blow")
    cfg = Config.parse(text)
    cfg.set("run.task", "synthetic_regress_small_grads")
    cfg.set("run.batch_size", "128")
    cfg.set("policy.preset", "fp32")
    cfg.set("run.lr", "1e30")
    cfg.set("run.epochs", "1")
    cfg_path = tmp_path / "blow.cfg"
    cfg_path.write_text(cfg.to_text())
    code = io_cli.main(["train", str(cfg_path)])
    assert code == 3


def test_cli_plot_and_histogram(tmp_path, capsys):
    out = tmp_path / "r"
    r = io_cli.run(RunConfig.from_config(Config.parse(
        BASE_CONFIG.format(out=out).replace("epochs = 2", "epochs = 1"))))
    svg = tmp_path / "loss.svg"
    assert io_cli.main(["plot", str(r.epochs_csv), "-o", str(svg)]) == 0
    assert svg.exists()

    assert io_cli.main(["histogram", str(r.checkpoint),
                        "--output-dir", str(tmp_path)]) == 0
    out_text = capsys.readouterr().out
    assert "recommended_scale" not in out_text
    assert "max_abs=" in out_text
    assert "fraction below 2^-27: " in out_text and "fraction below 2^-24: " in out_text
    assert (tmp_path / "hist_checkpoint_weights.csv").exists()
    assert io_cli.main(["histogram",
                        str(tmp_path / "hist_checkpoint_weights.csv")]) == 0


def _garbage_csv(tmp):
    (tmp / "h.csv").write_text("exponent,count\nx,y\n")
    return ["histogram", str(tmp / "h.csv")]


def _garbage_checkpoint(tmp):
    (tmp / "g.ckpt").write_bytes(b"\x89garbage\xff\x00\n" * 8)
    return ["histogram", str(tmp / "g.ckpt")]


def _missing_file(tmp):
    return ["histogram", str(tmp / "missing.ckpt")]


ONE_WEIGHT_MANIFEST = ("MPCKPT 1\nlayer.0 = Linear(1,1,bias=false)\n"
                       "layer.1 = MeanSquaredError\nentry.0 = param.0.weight\n"
                       "END\n").encode()


def _short_tensor_header(tmp):
    (tmp / "s.ckpt").write_bytes(ONE_WEIGHT_MANIFEST + b"MPTENS01\x01")
    return ["histogram", str(tmp / "s.ckpt")]


def _checkpoint_without_parameters(tmp):
    (tmp / "n.ckpt").write_text("MPCKPT 1\nlayer.0 = ReLU\n"
                                "layer.1 = MeanSquaredError\nEND\n")
    return ["histogram", str(tmp / "n.ckpt")]


def _checkpoint(tmp, name, entries, layers=("Linear(4,3,bias=true)",), f16=(),
                momentum=True):
    """A checkpoint of `layers` plus MeanSquaredError, holding tensors of
    ones of the given shapes, F32 except the entries named in f16.  With
    `momentum`, each param.k that entries give no momentum.k gets one of
    its shape, so that the file is malformed only in the way it names."""
    if momentum:
        named = {key for key, _ in entries}
        entries = entries + [("momentum" + key[5:], shape) for key, shape in entries
                             if key.startswith("param.")
                             and "momentum" + key[5:] not in named]
    manifest = ["MPCKPT 1"]
    manifest += [f"layer.{i} = {spec}"
                 for i, spec in enumerate(layers + ("MeanSquaredError",))]
    manifest += [f"entry.{i} = {key}" for i, (key, _) in enumerate(entries)]
    with open(tmp / name, "wb") as fh:
        fh.write(("\n".join(manifest + ["END"]) + "\n").encode())
        for key, shape in entries:
            dtype = T.DType.F16 if key in f16 else T.DType.F32
            T.write_tensor(fh, T.store(np.ones(shape, np.float32), dtype))
    return ["histogram", str(tmp / name)]


def _checkpoint_weight_of_wrong_shape(tmp):
    return _checkpoint(tmp, "w.ckpt", [("param.0.weight", (5, 7)),
                                       ("param.0.bias", (3,))])


def _checkpoint_missing_bias(tmp):
    return _checkpoint(tmp, "b.ckpt", [("param.0.weight", (4, 3))])


def _checkpoint_momentum_of_wrong_shape(tmp):
    return _checkpoint(tmp, "m.ckpt", [("param.0.weight", (4, 3)),
                                       ("param.0.bias", (3,)),
                                       ("momentum.0.weight", (3, 4))])


def _checkpoint_momentum_in_f16(tmp):
    return _checkpoint(tmp, "m16.ckpt", [("param.0.weight", (4, 3)),
                                         ("param.0.bias", (3,)),
                                         ("momentum.0.weight", (4, 3))],
                       f16={"momentum.0.weight"})


def _checkpoint_state_in_f16(tmp):
    return _checkpoint(tmp, "s16.ckpt", [("param.0.weight", (4, 3)),
                                         ("param.0.bias", (3,)),
                                         ("param.1.gamma", (3,)),
                                         ("param.1.beta", (3,)),
                                         ("state.1.running_mean", (3,)),
                                         ("state.1.running_var", (3,))],
                       layers=("Linear(4,3,bias=true)", "BatchNorm(3)"),
                       f16={"state.1.running_mean"})


def _batchnorm_checkpoint(tmp, name, change_state):
    """A Linear(16,4); BatchNorm(4) checkpoint whose state change_state edits."""
    model = nn.model_from_specs(["Linear(16,4,bias=true)", "BatchNorm(4)",
                                 "SoftmaxCrossEntropy"])
    change_state(model.state)
    eng.save_checkpoint(tmp / name, model, eng.make_parameters(model, 0))
    return ["histogram", str(tmp / name)]


def _checkpoint_state_of_wrong_shape(tmp):
    return _batchnorm_checkpoint(tmp, "ws.ckpt", lambda state: state.update(
        {"1.running_mean": np.zeros((5, 2), np.float32)}))


def _checkpoint_missing_state(tmp):
    return _batchnorm_checkpoint(tmp, "ms.ckpt",
                                 lambda state: state.pop("1.running_var"))


def _checkpoint_extra_state(tmp):
    return _batchnorm_checkpoint(tmp, "es.ckpt", lambda state: state.update(
        {"0.running_mean": np.zeros(4, np.float32)}))


def _non_numeric_cell(tmp):
    (tmp / "e.csv").write_text("epoch,train_loss,val_loss,val_acc\n"
                               "0,1.0,abc,0.5\n")
    return ["plot", str(tmp / "e.csv"), "-o", str(tmp / "e.svg")]


def _mnist_config(tmp, data):
    (tmp / "m.cfg").write_text(f"[run]\ntask = mnist\noutput_dir = {tmp / 'out'}\n"
                               f"data_dir = {data}\n")
    return ["train", str(tmp / "m.cfg")]


def _idx_dims_cut_short(tmp):
    data = tmp / "data"
    data.mkdir()
    (data / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">II", io_cli.IDX_IMAGES_MAGIC, 5))
    return _mnist_config(tmp, data)


def _idx_pairs(tmp, train_images, val_images):
    """IDX files for the mnist task, every label 0."""
    data = tmp / "data"
    data.mkdir()
    for split, images in (("train", train_images), ("t10k", val_images)):
        io_cli.write_idx(data / f"{split}-images-idx3-ubyte",
                         io_cli.IDX_IMAGES_MAGIC, images)
        io_cli.write_idx(data / f"{split}-labels-idx1-ubyte",
                         io_cli.IDX_LABELS_MAGIC, np.zeros(images.shape[0], np.uint8))
    return _mnist_config(tmp, data)


def _idx_without_images(tmp):
    return _idx_pairs(tmp, np.zeros((4, 28, 28), np.uint8),
                      np.zeros((0, 28, 28), np.uint8))


def _idx_images_of_height_0(tmp):
    return _idx_pairs(tmp, np.zeros((4, 0, 28), np.uint8),
                      np.zeros((4, 28, 28), np.uint8))


def _idx_images_with_a_spare_image(tmp, gz=False):
    """The mnist task with training images whose header claims (2, 28, 28)
    over the pixels of 3 images."""
    argv = _idx_pairs(tmp, np.zeros((2, 28, 28), np.uint8),
                      np.zeros((2, 28, 28), np.uint8))
    path = tmp / "data" / "train-images-idx3-ubyte"
    raw = path.read_bytes() + bytes(28 * 28)
    if gz:
        path.unlink()
        path = path.with_name(path.name + ".gz")
        raw = gzip.compress(raw)
    path.write_bytes(raw)
    return argv


def _gzipped_idx_images_with_a_spare_image(tmp):
    return _idx_images_with_a_spare_image(tmp, gz=True)


def _gzipped_idx_cut_short(tmp):
    """The mnist task with gzipped training images that lack the gzip
    trailer."""
    argv = _idx_pairs(tmp, np.zeros((2, 28, 28), np.uint8),
                      np.zeros((2, 28, 28), np.uint8))
    path = tmp / "data" / "train-images-idx3-ubyte"
    path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes())[:-8])
    path.unlink()
    return argv


def _checkpoint_with_a_spare_byte(tmp):
    model = nn.Model([nn.Linear(2, 1), nn.MeanSquaredError()])
    eng.save_checkpoint(tmp / "m.ckpt", model, eng.make_parameters(model, 0))
    with open(tmp / "m.ckpt", "ab") as fh:
        fh.write(b"\0")
    return ["histogram", str(tmp / "m.ckpt")]


def _checkpoint_missing_a_momentum(tmp):
    return _checkpoint(tmp, "nm.ckpt", [("param.0.weight", (4, 3)),
                                        ("param.0.bias", (3,)),
                                        ("momentum.0.weight", (4, 3))], momentum=False)


def _saved_checkpoint_with(tmp, old, new):
    """A checkpoint that save_checkpoint writes, with `old` in its
    manifest replaced by `new`."""
    model = nn.model_from_specs(["Linear(4,3,bias=true)", "LeakyReLU(0.01)",
                                 "BatchNorm(3)", "MeanSquaredError"])
    eng.save_checkpoint(tmp / "x.ckpt", model, eng.make_parameters(model, 0))
    raw = (tmp / "x.ckpt").read_bytes()
    assert old in raw
    (tmp / "x.ckpt").write_bytes(raw.replace(old, new, 1))
    return ["histogram", str(tmp / "x.ckpt")]


def _checkpoint_with_a_layer_index_gap(tmp):
    return _saved_checkpoint_with(tmp, b"layer.3 = ", b"layer.9 = ")


def _checkpoint_with_an_entry_out_of_order(tmp):
    return _saved_checkpoint_with(tmp, b"entry.1 = ", b"entry.7 = ")


def _checkpoint_naming_an_entry_twice(tmp):
    return _checkpoint(tmp, "t.ckpt", [("param.0.weight", (4, 3)), ("param.0.bias", (3,)),
                                       ("momentum.0.bias", (3,)),
                                       ("momentum.0.bias", (3,))])


def _checkpoint_of_a_nan_slope(tmp):
    return _saved_checkpoint_with(tmp, b"LeakyReLU(0.01)", b"LeakyReLU(nan)")


def _checkpoint_of_an_inf_epsilon(tmp):
    return _saved_checkpoint_with(tmp, b"epsilon=1e-05", b"epsilon=inf")


def _plot_of_no_finite_value(tmp):
    (tmp / "steps.csv").write_text(eng.STEP_CSV_HEADER + "\n1,0.5,1073741824,1,1,nan\n"
                                   "2,0.5,536870912,1,1,inf\n")
    return ["plot", str(tmp / "steps.csv"), "--metric", "grad_norm", "-o",
            str(tmp / "p.svg")]


def _plot_of_a_span_past_double(tmp):
    (tmp / "e.csv").write_text(_EPOCHS_HEADER + "0,1.0,1e308,0.5\n1,0.9,-1e308,0.6\n")
    return ["plot", str(tmp / "e.csv"), "-o", str(tmp / "e.svg")]


@pytest.mark.parametrize("make_argv", [
    _garbage_csv, _garbage_checkpoint, _missing_file, _short_tensor_header,
    _checkpoint_without_parameters, _checkpoint_weight_of_wrong_shape,
    _checkpoint_missing_bias, _checkpoint_momentum_of_wrong_shape,
    _checkpoint_state_of_wrong_shape, _checkpoint_missing_state,
    _checkpoint_extra_state, _checkpoint_momentum_in_f16, _checkpoint_state_in_f16,
    _non_numeric_cell, _idx_dims_cut_short, _idx_without_images,
    _idx_images_of_height_0, _idx_images_with_a_spare_image,
    _gzipped_idx_images_with_a_spare_image, _gzipped_idx_cut_short,
    _checkpoint_with_a_spare_byte, _checkpoint_missing_a_momentum,
    _checkpoint_with_a_layer_index_gap, _checkpoint_with_an_entry_out_of_order,
    _checkpoint_naming_an_entry_twice, _checkpoint_of_a_nan_slope,
    _checkpoint_of_an_inf_epsilon, _plot_of_no_finite_value, _plot_of_a_span_past_double])
def test_cli_malformed_file_exits_2_with_one_line(make_argv, tmp_path, capsys):
    assert io_cli.main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    if make_argv in (_gzipped_idx_images_with_a_spare_image, _gzipped_idx_cut_short):
        assert "train-images-idx3-ubyte.gz:" in err  # the file read, not the absent one


_EPOCHS_HEADER = "epoch,train_loss,val_loss,val_acc\n"


@pytest.mark.parametrize("name,text,metric", [
    ("steps.csv", eng.STEP_CSV_HEADER + "\n1,0.5,1073741824,1,1,nan\n"
     "2,0.5,536870912,0,0,0.25\n3,0.4,536870912,0,0,0.5\n", "grad_norm"),
    ("epochs.csv", _EPOCHS_HEADER + "0,1.0,nan,0.5\n1,0.9,0.8,0.6\n", None),
    ("epochs.csv", _EPOCHS_HEADER + "0,1.0,inf,0.5\n1,0.9,0.8,0.6\n2,0.8,-inf,0.7\n",
     None),
], ids=["steps_nan", "epochs_nan", "epochs_inf"])
@pytest.mark.parametrize("logy", [False, True])
def test_cli_plot_drops_nan_and_inf_points(name, text, metric, logy, tmp_path):
    (tmp_path / name).write_text(text)
    svg = tmp_path / "p.svg"
    argv = ["plot", str(tmp_path / name), "-o", str(svg)]
    argv += ["--metric", metric] if metric else []
    assert io_cli.main(argv + (["--logy"] if logy else [])) == 0
    lines = ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}polyline")
    coords = [float(v) for line in lines for xy in line.get("points").split()
              for v in xy.split(",")]
    assert coords and np.isfinite(coords).all()


@pytest.mark.parametrize("logy", [False, True])
def test_cli_plot_of_a_constant_series_above_2_53(logy, tmp_path):
    # lo + 1.0 == lo here: the zero span widens by the values' magnitude
    (tmp_path / "e.csv").write_text(_EPOCHS_HEADER + "0,1.0,1e20,0.5\n1,0.9,1e20,0.6\n")
    svg = tmp_path / "p.svg"
    argv = ["plot", str(tmp_path / "e.csv"), "-o", str(svg)]
    assert io_cli.main(argv + (["--logy"] if logy else [])) == 0
    root = ElementTree.parse(svg)
    line, = root.iter("{http://www.w3.org/2000/svg}polyline")
    assert np.isfinite([float(v) for xy in line.get("points").split()
                        for v in xy.split(",")]).all()
    assert "1e+20" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


def _idx_images_of_dims(dims):
    """The mnist task with training images whose header claims `dims`
    over 16 bytes of pixels."""
    def make_argv(tmp):
        data = tmp / "data"
        data.mkdir()
        (data / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">I3I", io_cli.IDX_IMAGES_MAGIC, *dims) + bytes(16))
        return _mnist_config(tmp, data)
    return make_argv


def _checkpoint_tensor_of_dims(dims):
    """A checkpoint whose F32 weight header claims `dims` over 16 bytes."""
    def make_argv(tmp):
        header = b"MPTENS01" + struct.pack(f"<BB{len(dims)}Q", 1, len(dims), *dims)
        (tmp / "big.ckpt").write_bytes(ONE_WEIGHT_MANIFEST + header + bytes(16))
        return ["histogram", str(tmp / "big.ckpt")]
    return make_argv


@pytest.mark.parametrize("make_argv", [
    _idx_images_of_dims((2**16, 2**16, 2**16)), _idx_images_of_dims((2**31, 2**31, 4)),
    _checkpoint_tensor_of_dims((2**40,)), _checkpoint_tensor_of_dims((2**31, 2**31))],
    ids=["idx_2^48_bytes", "idx_2^64_bytes", "tensor_2^42_bytes", "tensor_2^64_bytes"])
def test_cli_header_claiming_more_than_the_file_holds_exits_2(make_argv, tmp_path,
                                                              capsys):
    # byte counts past int64 included: none may wrap, and nothing of the
    # claimed size may be allocated
    assert io_cli.main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "truncated" in err


def test_cli_labels_beyond_model_classes_exit_2(tmp_path, capsys):
    # synthetic_classify has 4 classes; a 2-way model cannot take labels 2, 3
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "out"))
    cfg.set("model.layers", "Linear(16,2,bias=true); SoftmaxCrossEntropy")
    (tmp_path / "l.cfg").write_text(cfg.to_text())
    assert io_cli.main(["train", str(tmp_path / "l.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: labels must lie in [0, 2)")
    assert err.count("\n") == 1
    steps = (tmp_path / "out" / "steps.csv").read_text().splitlines()
    assert steps == [eng.STEP_CSV_HEADER]


def test_cli_init_override_of_wrong_shape_exits_1(tmp_path, capsys):
    # the task sets 2.weight to (32, 4); this model's 2.weight is (8, 4)
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "out"))
    cfg.set("run.task", "synthetic_regress_small_grads")
    cfg.set("model.layers", "Linear(16,8,bias=true); Tanh; "
                            "Linear(8,4,bias=false); MeanSquaredError")
    (tmp_path / "o.cfg").write_text(cfg.to_text())
    assert io_cli.main(["train", str(tmp_path / "o.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "2.weight" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "steps.csv").exists()


@pytest.mark.parametrize("field,value,says", [
    ("model.layers", "Linear(16); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "Linear(16,4,foo=1); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "ReLU(3); Linear(16,4); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "Linear(16,4,bias=0.5); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "Linear(16.5,4); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "LeakyReLU(true); Linear(16,4); SoftmaxCrossEntropy",
     "field model.layers"),
    ("model.layers", "Linear(16,4,true); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "Linear(16,4,bias=true,bias=false); SoftmaxCrossEntropy",
     "field model.layers"),
    ("model.layers", "BatchNorm(16,momentum=0.5,momentum=0.9); Linear(16,4); "
     "SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "Linear(bias=false,16,4); SoftmaxCrossEntropy", "field model.layers"),
    ("model.layers", "Linear(16,bias=false,4); SoftmaxCrossEntropy", "field model.layers"),
    # layer arguments that are not finite (or not > 0) as the layer's f32
    *[("model.layers", f"{spec}; Linear(16,4); SoftmaxCrossEntropy",
       "field model.layers: ")
      for spec in ["LeakyReLU(nan)", "LeakyReLU(-1e39)", "LeakyReLU(inf)",
                   "BatchNorm(16,epsilon=inf)", "BatchNorm(16,epsilon=nan)",
                   "BatchNorm(16,epsilon=1e-50)"]],
    # parameters whose initial draw needs more bytes than numpy can
    # allocate, rejected unallocated
    ("model.layers", "Linear(16,10000000000000000000); SoftmaxCrossEntropy",
     "field model.layers"),
    ("model.layers", "Linear(1,4611686018427387904); SoftmaxCrossEntropy",
     "field model.layers"),
    ("model.layers", "Linear(1,1152921504606846975); SoftmaxCrossEntropy",
     "field model.layers"),
    ("model.layers", "Linear(16,100000000000000000000000); SoftmaxCrossEntropy",
     "field model.layers"),
    ("run.seed", "-1", "run.seed"),
    ("run.seed", "18446744073709551616", "run.seed"),
    ("run.nesterov", "yes", "field run.nesterov"),
    # values that read fine as text but round to inf, 0 or 1 in f32
    ("run.lr", "inf", "run.lr"),
    ("run.lr", "1e39", "run.lr"),
    ("run.lr", "1e-50", "run.lr"),
    ("run.momentum", "0.99999999", "run.momentum"),
    ("policy.loss_scale", repr(2.0**200), "policy"),
    ("policy.loss_scale", repr(2.0**-200), "policy"),
])
def test_cli_bad_layer_spec_or_seed_exits_1_with_one_line(field, value, says,
                                                          tmp_path, capsys):
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "out"))
    cfg.set(field, value)
    (tmp_path / "b.cfg").write_text(cfg.to_text())
    assert io_cli.main(["train", str(tmp_path / "b.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {says}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module,name,says", [
    (eng, "make_parameters", "config error: field model.layers: the parameters "
                             "do not fit in memory"),
    (io_cli, "run", "config error: out of memory"),
], ids=["make_parameters", "run"])
def test_cli_out_of_memory_exits_1_with_one_line(module, name, says, tmp_path,
                                                 capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 11.6 TiB")
    monkeypatch.setattr(module, name, out_of_memory)
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "out"))
    (tmp_path / "m.cfg").write_text(cfg.to_text())
    assert io_cli.main(["train", str(tmp_path / "m.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(says) and err.count("\n") == 1
    assert "11.6 TiB" in err


@pytest.mark.parametrize("task,layers,named", [
    ("synthetic_classify", "Conv2d(1,2,3,3); SoftmaxCrossEntropy", "Conv2d"),
    ("synthetic_classify", "LSTMCell(16,4); SoftmaxCrossEntropy", "LSTMCell"),
    ("synthetic_classify", "Linear(8,4,bias=true); SoftmaxCrossEntropy", "Linear"),
    ("synthetic_classify", "Linear(16,4); MeanSquaredError", "MeanSquaredError"),
    ("synthetic_regress_small_grads", "Linear(16,32,bias=true); Tanh; "
     "Linear(32,4,bias=false); SoftmaxCrossEntropy", "SoftmaxCrossEntropy"),
])
def test_cli_model_that_does_not_fit_the_task_exits_1(task, layers, named,
                                                      tmp_path, capsys):
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "out"))
    cfg.set("run.task", task)
    cfg.set("model.layers", layers)
    (tmp_path / "s.cfg").write_text(cfg.to_text())
    assert io_cli.main(["train", str(tmp_path / "s.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}") and err.count("\n") == 1
    steps = (tmp_path / "out" / "steps.csv").read_text().splitlines()
    assert steps == [eng.STEP_CSV_HEADER]


@pytest.mark.parametrize("field", ["policy.mode", "policy.use_master",
                                   "policy.reference_f32", "policy.loss_scal",
                                   "run.epoch", "extra.key"])
def test_cli_unknown_config_key_exits_1_with_one_line(field, tmp_path, capsys):
    cfg = Config.parse(BASE_CONFIG.format(out=tmp_path / "out"))
    cfg.set(field, "true")
    (tmp_path / "u.cfg").write_text(cfg.to_text())
    assert io_cli.main(["train", str(tmp_path / "u.cfg")]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: unknown field {field}\n"
    assert not (tmp_path / "out").exists()


def _train_into_a_file(tmp):
    (tmp / "f").write_text("")
    cfg = Config.parse(BASE_CONFIG.format(out=tmp / "f"))
    cfg.set("run.epochs", "1")
    (tmp / "w.cfg").write_text(cfg.to_text())
    return ["train", str(tmp / "w.cfg")]


def _plot_into_a_missing_dir(tmp):
    (tmp / "e.csv").write_text("epoch,val_loss\n0,1.0\n")
    return ["plot", str(tmp / "e.csv"), "-o", str(tmp / "missing" / "p.svg")]


def _histogram_into_a_missing_dir(tmp):
    model = nn.Model([nn.Linear(2, 1), nn.MeanSquaredError()])
    eng.save_checkpoint(tmp / "m.ckpt", model, eng.make_parameters(model, 0))
    return ["histogram", str(tmp / "m.ckpt"), "--output-dir", str(tmp / "missing")]


def _gendata_under_a_file(tmp):
    (tmp / "f").write_text("")
    return ["gendata", str(tmp / "f" / "d")]


@pytest.mark.parametrize("make_argv", [
    _train_into_a_file, _plot_into_a_missing_dir, _histogram_into_a_missing_dir,
    _gendata_under_a_file])
def test_cli_unwritable_output_path_exits_1_with_one_line(make_argv, tmp_path, capsys):
    assert io_cli.main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_cli_config_not_utf8_exits_1_with_one_line(tmp_path, capsys):
    (tmp_path / "u16.cfg").write_bytes(b"\xff\xfe[\x00r\x00u\x00n\x00]\x00")
    assert io_cli.main(["train", str(tmp_path / "u16.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_cli_gendata_seed_out_of_range_exits_1_with_one_line(seed, tmp_path, capsys):
    assert io_cli.main(["gendata", str(tmp_path / "d"), "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --seed") and err.count("\n") == 1
    assert not (tmp_path / "d").exists()


def test_cli_compare(tmp_path, capsys):
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(BASE_CONFIG.format(out=tmp_path / "cmp")
                        .replace("epochs = 2", "epochs = 1"))
    assert io_cli.main(["compare", str(cfg_path),
                        "--vary", "policy.preset=fp32,mp"]) == 0
    out = capsys.readouterr().out
    assert "final_val_loss" in out and "policy.preset=mp" in out


def test_cli_gendata(tmp_path):
    assert io_cli.main(["gendata", str(tmp_path / "d"), "--seed", "1"]) == 0
    train, _ = io_cli.load_mnist(tmp_path / "d")
    assert train.size == 60000


def test_mnist_run_with_lstm_first_keeps_image_inputs(tmp_path, monkeypatch):
    io_cli.generate_surrogate_mnist(tmp_path / "data", n_train=32, n_test=16)
    shapes = []

    def train_step(model, params, inputs, *args, **kwargs):
        shapes.append(inputs.shape)
        return real_step(model, params, inputs, *args, **kwargs)

    real_step = eng.train_step
    monkeypatch.setattr(eng, "train_step", train_step)
    text = (f"[run]\ntask = mnist\noutput_dir = {tmp_path / 'out'}\n"
            f"data_dir = {tmp_path / 'data'}\nepochs = 1\nbatch_size = 16\n"
            "[model]\nlayers = LSTMCell(28,8); Linear(8,10,bias=true); "
            "SoftmaxCrossEntropy\n[policy]\npreset = mp\n")
    r = io_cli.run(RunConfig.from_config(Config.parse(text)))
    assert shapes == [(16, 28, 28)] * 2
    assert np.isfinite(r.final_val_loss) and 0 <= r.final_val_acc <= 1
    assert len((tmp_path / "out" / "steps.csv").read_text().splitlines()) == 3
    assert eng.load_checkpoint(r.checkpoint)[0].spec_strings()[0] == "LSTMCell(28,8)"


def test_mnist_cnn_config_trains_under_compare(tmp_path):
    # Conv2d(1,...) reads the [b, 28, 28] batches as one channel, and
    # Linear reads its [b, 2, 28, 28] output, so no layer flattens
    io_cli.generate_surrogate_mnist(tmp_path / "data", n_train=32, n_test=16)
    (tmp_path / "cnn.cfg").write_text(
        f"[run]\ntask = mnist\noutput_dir = {tmp_path / 'out'}\n"
        f"data_dir = {tmp_path / 'data'}\nepochs = 1\nbatch_size = 16\n"
        "[model]\nlayers = Conv2d(1,2,3,3,pad=1); ReLU; Linear(1568,10,bias=true); "
        "SoftmaxCrossEntropy\n")
    assert io_cli.main(["compare", str(tmp_path / "cnn.cfg"),
                        "--vary", "policy.preset=fp32,mp"]) == 0
    for preset in ("fp32", "mp"):
        ckpt = tmp_path / "out" / f"policy.preset={preset}" / "model.ckpt"
        model, _ = eng.load_checkpoint(ckpt)
        assert model.spec_strings()[0] == "Conv2d(1,2,3,3,stride=1,pad=1)"


def test_env_var_data_dir(tmp_path, monkeypatch):
    io_cli.generate_surrogate_mnist(tmp_path / "envdata", n_train=300, n_test=60)
    monkeypatch.setenv(io_cli.DATA_DIR_ENV, str(tmp_path / "envdata"))
    text = ("[run]\ntask = mnist\noutput_dir = " + str(tmp_path / "envrun") +
            "\nepochs = 1\nbatch_size = 50\nlr = 0.1\n"
            "[policy]\npreset = fp32\n")
    r = io_cli.run(RunConfig.from_config(Config.parse(text)))
    assert np.isfinite(r.final_val_loss)

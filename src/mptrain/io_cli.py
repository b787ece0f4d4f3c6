"""Experiment harness and command line.

Configs are flat INI-style text: [section] headers and key = value
lines, nothing nested, so runs diff cleanly.  A config fully determines
a run; executing it twice produces byte-identical metrics CSVs and
checkpoints.

Subcommands: train, compare, histogram, plot, halfdump, gendata.
Exit codes: 0 ok, 1 config error (unknown keys, malformed layer specs,
models that do not fit the task and output paths that cannot be written
included), 2 data error, 3 numerical failure (non-finite loss under f32
precision, or a dynamic loss scale backed off to zero).  The dataset
directory comes from the config or the MPTRAIN_DATA_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import copy
import gzip
import hashlib
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from html import escape
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import binary16 as b16
from . import diagnostics as diag
from . import mp_engine as eng
from . import nn
from . import tensor as T
from .tensor import DType, Tensor

DATA_DIR_ENV = "MPTRAIN_DATA_DIR"


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config file: sections of key = value lines.
# ---------------------------------------------------------------------------

class Config:
    """Parsed config: ordered sections of ordered key/value strings."""

    def __init__(self):
        self.sections: dict[str, dict[str, str]] = {}

    @staticmethod
    def parse(text: str) -> "Config":
        cfg = Config()
        current = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if not current:
                    raise ConfigError(f"line {lineno}: empty section name")
                cfg.sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            if current is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in cfg.sections[current]:
                raise ConfigError(f"line {lineno}: {current}.{key} is set twice")
            cfg.sections[current][key] = value.strip()
        return cfg

    @staticmethod
    def load(path) -> "Config":
        try:
            with open(path) as fh:
                return Config.parse(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e

    def to_text(self) -> str:
        lines = []
        for section, kv in self.sections.items():
            lines.append(f"[{section}]")
            for k, v in kv.items():
                lines.append(f"{k} = {v}")
            lines.append("")
        return "\n".join(lines)

    def get(self, section: str, key: str, default=None) -> Optional[str]:
        return self.sections.get(section, {}).get(key, default)

    def set(self, dotted: str, value: str) -> None:
        section, _, key = dotted.partition(".")
        if not section or not key:
            raise ConfigError(f"override field must be section.key, got {dotted!r}")
        self.sections.setdefault(section, {})[key] = value

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


TASKS = ("synthetic_classify", "synthetic_regress_small_grads", "mnist")
PRESETS = ("fp32", "mp", "mp_noscale", "mp_nomaster")
_REQUIRED = object()


class _Field(NamedTuple):
    kind: type
    default: object = None
    rule: Optional[Callable] = None
    says: str = ""


# Every config key: its type, its default and the rule its value must meet;
# lr and momentum are checked by sgd_step's own rules.
FIELDS = {
    "run.task": _Field(str, _REQUIRED, TASKS.__contains__, f"one of {TASKS}"),
    "run.seed": _Field(int, 0, lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
    "run.epochs": _Field(int, 1, lambda v: v >= 1, ">= 1"),
    "run.batch_size": _Field(int, 32, lambda v: v >= 1, ">= 1"),
    "run.lr": _Field(float, 0.1, eng.lr_ok, "finite and positive as an f32"),
    "run.momentum": _Field(float, 0.0, eng.momentum_ok, "in [0, 1) as an f32"),
    "run.nesterov": _Field(bool, False),
    "run.output_dir": _Field(str, _REQUIRED),
    "run.data_dir": _Field(str),
    "run.sample_every": _Field(int, 0, lambda v: v >= 0, ">= 0"),
    "model.layers": _Field(str),
    "policy.preset": _Field(str, "fp32", PRESETS.__contains__, f"one of {PRESETS}"),
    "policy.accum": _Field(str, "acc32", lambda v: v.lower() in ("acc16", "acc32"),
                           "acc16 or acc32"),
    "policy.loss_scale": _Field(float, 1.0),  # or "dynamic"
    "policy.init_scale": _Field(float),
    "policy.growth_factor": _Field(float),
    "policy.backoff_factor": _Field(float),
    "policy.growth_interval": _Field(int),
    "policy.clip_threshold": _Field(float),
}


def _field(cfg: Config, dotted: str):
    """One config value, typed and checked; the default if unset or empty."""
    kind, default, rule, says = FIELDS[dotted]
    raw = cfg.get(*dotted.split("."))
    if raw is None or raw == "":
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {dotted}")
        return default
    try:
        value = nn.parse_value(kind, raw)
    except ValueError as e:
        raise ConfigError(f"field {dotted}: {e}") from None
    if rule is not None and not rule(value):
        raise ConfigError(f"{dotted} must be {says}, got {raw!r}")
    return value


@dataclass
class RunConfig:
    task: str
    seed: int
    epochs: int
    batch_size: int
    lr: float
    momentum: float
    nesterov: bool
    output_dir: str
    data_dir: Optional[str]
    sample_every: int
    model_specs: Optional[list[str]]
    policy: eng.TrainingPolicy
    source: Config

    @staticmethod
    def from_config(cfg: Config) -> "RunConfig":
        for section, kv in cfg.sections.items():
            for key in kv:
                if f"{section}.{key}" not in FIELDS:
                    raise ConfigError(f"unknown field {section}.{key}")
        # each run.<key> is the RunConfig field of that name
        run = {key[4:]: _field(cfg, key) for key in FIELDS if key.startswith("run.")}
        run["data_dir"] = run["data_dir"] or os.environ.get(DATA_DIR_ENV)
        specs = None
        layers = _field(cfg, "model.layers")
        if layers:
            try:
                specs = [s.strip() for s in layers.split(";") if s.strip()]
                shapes = nn.model_from_specs(specs).param_shapes()  # validate early
                for name, shape in shapes.items():
                    # initialisation draws one 8-byte word per element (and
                    # one more for an odd count) in a single array
                    if 8 * (math.prod(shape) + 1) > np.iinfo(np.intp).max:
                        raise ValueError(f"parameter {name} {shape} needs more "
                                         f"bytes than numpy can allocate")
            except ValueError as e:
                raise ConfigError(f"field model.layers: {e}") from e
        return RunConfig(**run, model_specs=specs, policy=_build_policy(cfg),
                         source=cfg)


def _build_policy(cfg: Config) -> eng.TrainingPolicy:
    preset = _field(cfg, "policy.preset")
    clip = _field(cfg, "policy.clip_threshold")
    acc16 = _field(cfg, "policy.accum").lower() == "acc16"
    try:
        if preset == "fp32":
            return eng.TrainingPolicy(clip_threshold=clip)
        if preset == "mp_noscale":
            scaler = eng.ConstantScale()
        elif cfg.get("policy", "loss_scale", "").lower() == "dynamic":
            # a DynamicScale gets only the settings the config sets
            settings = {key: _field(cfg, f"policy.{key}") for key in (
                "init_scale", "growth_factor", "backoff_factor", "growth_interval")}
            scaler = eng.DynamicScale(**{k: v for k, v in settings.items()
                                         if v is not None})
        else:
            scaler = eng.ConstantScale(_field(cfg, "policy.loss_scale"))
        accum = T.AccumMode.ACC16 if acc16 else T.AccumMode.ACC32
        return eng.TrainingPolicy(nn.PrecisionPolicy(DType.F16, accum),
                                  preset != "mp_nomaster", scaler, clip)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"policy: {e}") from e


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    inputs: Tensor   # F32, [N, ...]
    labels: Tensor   # F32: class ids [N] or scaled one-hot targets [N, K]
    split: str

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.split}: {self.inputs.shape[0]} inputs vs "
                            f"{self.labels.shape[0]} labels")

    @property
    def size(self):
        return self.inputs.shape[0]


@dataclass
class TaskBundle:
    train: Dataset
    val: Dataset
    default_specs: list[str]
    init_overrides: dict[str, np.ndarray] = field(default_factory=dict)


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_input(read, path, *args):
    """read(path, *args), with a missing or malformed file as a DataError."""
    try:
        return read(path, *args)
    except DataError:
        raise
    except (OSError, EOFError, ValueError, KeyError, IndexError) as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _find_idx(path) -> str:
    """The IDX file to read: path, or else path.gz."""
    for name in (path, path + ".gz"):
        if os.path.exists(name):
            return name
    raise DataError(f"missing IDX file {path} (or {path}.gz)")


def _read_idx(path, expect_magic: int) -> np.ndarray:
    """The IDX array in path, gunzipped where path ends in .gz."""
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as fh:
        head = fh.read(4)
        if len(head) != 4:
            raise DataError(f"{path}: truncated magic")
        magic = struct.unpack(">I", head)[0]
        if magic != expect_magic:
            raise DataError(f"{path}: expected magic 0x{expect_magic:08X}, "
                            f"found 0x{magic:08X}")
        ndim = magic & 0xFF
        raw_dims = fh.read(4 * ndim)
        if len(raw_dims) != 4 * ndim:
            raise DataError(f"{path}: truncated dimensions ({len(raw_dims)} "
                            f"of {4 * ndim} bytes)")
        dims = struct.unpack(f">{ndim}I", raw_dims)
        if 0 in dims:
            raise DataError(f"{path}: empty dimension in {dims}")
        count = math.prod(dims)  # a Python int: no wrap however large
        raw = T.read_upto(fh, count)
        if len(raw) != count:
            raise DataError(f"{path}: truncated data ({len(raw)} of {count} bytes)")
        if fh.read(1):
            raise DataError(f"{path}: bytes after the {count} data bytes "
                            f"its header claims")
        return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load IDX-format image/label files (plain or .gz) from data_dir."""
    if not data_dir:
        raise DataError(f"no dataset directory configured (set run.data_dir "
                        f"or ${DATA_DIR_ENV})")

    def load_pair(img_name, lab_name, split):
        images = _read_input(_read_idx, _find_idx(os.path.join(data_dir, img_name)),
                             IDX_IMAGES_MAGIC)
        labels = _read_input(_read_idx, _find_idx(os.path.join(data_dir, lab_name)),
                             IDX_LABELS_MAGIC)
        if labels.max() > 9:
            raise DataError(f"{split}: label {labels.max()} out of range [0, 9]")
        x = (images.astype(np.float32) / np.float32(255.0))
        return Dataset(T.store(x, DType.F32),
                       T.store(labels.astype(np.float32), DType.F32), split)

    train = load_pair("train-images-idx3-ubyte", "train-labels-idx1-ubyte", "train")
    val = load_pair("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", "validation")
    return train, val


def write_idx(path, magic: int, values: np.ndarray) -> None:
    """IDX file: the magic, one big-endian u32 per dimension, the bytes."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">I{values.ndim}I", magic, *values.shape))
        fh.write(values.astype(np.uint8).tobytes())


def generate_surrogate_mnist(data_dir, seed: int = 20180423,
                             n_train: int = 60000, n_test: int = 10000) -> None:
    """Deterministic MNIST-shaped dataset: ten structured 28x28 class
    prototypes plus pixel noise, written as standard IDX files.

    A stand-in for environments without the real digit files; the
    harness loads it through the same IDX path.
    """
    protos = np.zeros((10, 28, 28), dtype=np.float32)
    protos[0, 4:24, 10:18] = 1.0
    protos[1, 10:18, 4:24] = 1.0
    protos[2, :14, :14] = 1.0
    protos[3, :14, 14:] = 1.0
    protos[4, 14:, :14] = 1.0
    protos[5, 14:, 14:] = 1.0
    for i in range(28):
        protos[6, i, :] = 1.0 if i % 4 < 2 else 0.0
        protos[7, :, i] = 1.0 if i % 4 < 2 else 0.0
    ii, jj = np.meshgrid(np.arange(28), np.arange(28), indexing="ij")
    protos[8][(ii + jj) % 6 < 3] = 1.0
    protos[9][np.abs(ii - 14) + np.abs(jj - 14) < 10] = 1.0

    os.makedirs(data_dir, exist_ok=True)

    def byte_noise(count, stream):
        # one u64 yields eight noise bytes; explicit shifts keep the
        # byte order platform-independent
        words = T.random_u64((count + 7) // 8, seed, stream)
        parts = [((words >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.uint8)
                 for i in range(8)]
        return np.stack(parts, axis=1).reshape(-1)[:count]

    def make(n, stream, img_path, lab_path):
        labels = (T.random_u64(n, seed, stream) % np.uint64(10)).astype(np.uint8)
        noise = byte_noise(n * 28 * 28, stream + 1).astype(np.float32) - 127.5
        # per-image contrast jitter keeps the task off the 100%-accuracy
        # ceiling: faint images are genuinely ambiguous under the noise
        contrast = (0.12 + 0.88 * T.random_uniform01(n, seed, stream + 2)
                    ).astype(np.float32)[:, None, None]
        pix = (protos[labels] * 130.0 * contrast + 60.0
               + noise.reshape(n, 28, 28) * 0.85)
        write_idx(img_path, IDX_IMAGES_MAGIC, np.clip(pix, 0, 255).astype(np.uint8))
        write_idx(lab_path, IDX_LABELS_MAGIC, labels)

    make(n_train, 10, os.path.join(data_dir, "train-images-idx3-ubyte"),
         os.path.join(data_dir, "train-labels-idx1-ubyte"))
    make(n_test, 20, os.path.join(data_dir, "t10k-images-idx3-ubyte"),
         os.path.join(data_dir, "t10k-labels-idx1-ubyte"))


def _cluster_inputs(n: int, means: np.ndarray, seed: int, stream: int,
                    spread: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample n points from Gaussian clusters around the given means."""
    classes = means.shape[0]
    labels = (T.random_u64(n, seed, stream) % np.uint64(classes)).astype(np.int64)
    noise = T.random_normal([n, means.shape[1]], 0.0, spread,
                            seed=seed, stream=stream + 1)
    return means[labels] + noise, labels


def _cluster_means(classes: int, in_dim: int, seed: int, stream: int) -> np.ndarray:
    return T.random_normal([classes, in_dim], 0.0, 1.0, seed=seed, stream=stream)


def task_synthetic_classify(seed: int) -> TaskBundle:
    in_dim, classes = 16, 4
    means = _cluster_means(classes, in_dim, seed, 100)
    xtr, ytr = _cluster_inputs(4096, means, seed, 110, spread=0.6)
    xva, yva = _cluster_inputs(1024, means, seed, 120, spread=0.6)
    specs = [f"Linear({in_dim},32,bias=true)", "Tanh",
             f"Linear(32,{classes},bias=true)", "SoftmaxCrossEntropy"]
    return TaskBundle(
        Dataset(T.store(xtr, DType.F32), T.store(ytr.astype(np.float32), DType.F32), "train"),
        Dataset(T.store(xva, DType.F32), T.store(yva.astype(np.float32), DType.F32), "validation"),
        specs)


UNDERFLOW_TARGET_SCALE = 2.0**-17


def gen_underflow_task(seed: int) -> TaskBundle:
    """Classification posed as regression onto tiny one-hot indicators.

    The output scale and batch size are engineered together so that with
    no loss scaling every activation-gradient element sits below 2^-24
    in magnitude (the mean over batch*classes elements divides the
    per-element residual by 512): the f16 stores flush them all to zero
    and nothing trains.  A scale of 8 lifts the useful band back into
    the representable range.  Run this task with batch_size 128; smaller
    batches raise the gradient magnitudes above the flush threshold.
    """
    in_dim, classes, hidden = 16, 4, 32
    c = np.float32(UNDERFLOW_TARGET_SCALE)

    def onehot(labels):
        out = np.zeros((labels.shape[0], classes), dtype=np.float32)
        out[np.arange(labels.shape[0]), labels] = c
        return out

    means = _cluster_means(classes, in_dim, seed, 300)
    xtr, ytr = _cluster_inputs(2048, means, seed, 310, spread=0.5)
    xva, yva = _cluster_inputs(512, means, seed, 320, spread=0.5)

    specs = [f"Linear({in_dim},{hidden},bias=true)", "Tanh",
             f"Linear({hidden},{classes},bias=false)", "MeanSquaredError"]
    # readout starts near the subnormal floor: predictions ~2^-21, so
    # every loss gradient lands under 2^-24 until scaling lifts it
    w2 = T.random_normal([hidden, classes], 0.0, 2.0**-24, seed=seed, stream=500)
    return TaskBundle(
        Dataset(T.store(xtr, DType.F32), T.store(onehot(ytr), DType.F32), "train"),
        Dataset(T.store(xva, DType.F32), T.store(onehot(yva), DType.F32), "validation"),
        specs, init_overrides={"2.weight": w2})


def build_task(config: RunConfig) -> TaskBundle:
    if config.task == "synthetic_classify":
        return task_synthetic_classify(config.seed)
    if config.task == "synthetic_regress_small_grads":
        return gen_underflow_task(config.seed)
    train, val = load_mnist(config.data_dir)
    specs = ["Linear(784,256,bias=true)", "ReLU", "Linear(256,10,bias=true)",
             "SoftmaxCrossEntropy"]
    return TaskBundle(train, val, specs)


# ---------------------------------------------------------------------------
# Running experiments.
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    run_id: str
    output_dir: str
    final_train_loss: float
    final_val_loss: float
    final_val_acc: float
    best_val_acc: float
    steps_csv: str
    epochs_csv: str
    checkpoint: str


def evaluate(model: nn.Model, ds: Dataset, policy: eng.TrainingPolicy,
             batch_size: int) -> tuple[float, float]:
    """Loss and accuracy over ds under the policy's precision, with the
    inputs in the shape ds holds them (each first layer reads it its own way).

    Targets are cast like train_step casts them; class ids stay exact in
    f16 below 2048.  Labels of shape [B] are class ids, [B, C] one-hot.
    """
    pdtype = policy.precision.compute_dtype
    total_loss = 0.0
    correct = 0
    n = ds.size
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x = T.cast(T.take(ds.inputs, idx), pdtype)
        y = T.cast(T.take(ds.labels, idx), pdtype)
        loss, _ = nn.forward(model, x, y, policy.precision, train=False)
        total_loss += loss * len(idx)
        pred = nn.predictions(model, x, policy.precision)
        truth = y.widen()
        truth = truth.astype(np.int64) if truth.ndim == 1 else np.argmax(truth, axis=1)
        correct += int((np.argmax(pred, axis=1) == truth).sum())
    return total_loss / n, correct / n


def run(config: RunConfig) -> RunResult:
    policy = copy.deepcopy(config.policy)  # a dynamic scaler's state is this run's
    bundle = build_task(config)
    specs = config.model_specs or bundle.default_specs
    model = nn.model_from_specs(specs)
    try:
        params = eng.make_parameters(model, config.seed)
    except MemoryError as e:
        raise ConfigError(f"field model.layers: the parameters do not fit in "
                          f"memory ({e})") from None
    for name, arr in bundle.init_overrides.items():
        if model.param_shapes().get(name) != arr.shape:
            raise ConfigError(f"init override {name} {arr.shape} does not fit model."
                              f"layers, which give it {model.param_shapes().get(name)}")
        params[name] = eng.Parameter(name, T.store(arr, DType.F32))

    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    run_id = config.source.hash()[:12]

    hook = None
    if config.sample_every > 0:
        hist_dir = os.path.join(out_dir, "histograms")
        os.makedirs(hist_dir, exist_ok=True)
        hook = diag.SampleHook(hist_dir, run_id)

    steps_path = os.path.join(out_dir, "steps.csv")
    epochs_path = os.path.join(out_dir, "epochs.csv")
    ckpt_path = os.path.join(out_dir, "model.ckpt")

    train, val = bundle.train, bundle.val
    bs = config.batch_size
    n_batches = train.size // bs
    if n_batches < 1:
        raise ConfigError(f"batch_size {bs} exceeds training set size {train.size}")

    iteration = 0
    best_acc = 0.0
    final_train = final_loss = final_acc = float("nan")
    with eng.StepCsvWriter(steps_path) as steps_csv, \
            open(epochs_path, "w") as epochs_csv:
        epochs_csv.write("epoch,train_loss,val_loss,val_acc\n")
        for epoch in range(config.epochs):
            perm = T.permutation(train.size, config.seed, stream=1000 + epoch)
            epoch_loss = 0.0
            for bi in range(n_batches):
                idx = perm[bi * bs:(bi + 1) * bs]
                x = T.take(train.inputs, idx)
                y = T.take(train.labels, idx)
                sampled = hook and iteration % config.sample_every == 0
                report = eng.train_step(model, params, x, y, policy,
                                        config.lr, config.momentum, config.nesterov,
                                        iteration, hook if sampled else None)
                steps_csv.write(report)
                epoch_loss += report.loss
                iteration += 1
            train_loss = epoch_loss / n_batches
            val_loss, val_acc = evaluate(model, val, policy, bs)
            best_acc = max(best_acc, val_acc)
            epochs_csv.write(f"{epoch},{train_loss!r},{val_loss!r},{val_acc!r}\n")
            final_train, final_loss, final_acc = train_loss, val_loss, val_acc

    eng.save_checkpoint(ckpt_path, model, params)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"run_id = {run_id}\n")
        fh.write(f"config_sha256 = {config.source.hash()}\n")
        fh.write(f"iterations = {iteration}\n")
        fh.write("\n")
        fh.write(config.source.to_text())

    return RunResult(run_id, out_dir, final_train, final_loss, final_acc,
                     best_acc, steps_path, epochs_path, ckpt_path)


COMPARE_COLUMNS = ("variant", "final_train_loss", "final_val_loss", "final_val_acc",
                   "best_val_acc")


def compare(base_cfg: Config, vary_field: str, values: list[str],
            out_dir: Optional[str] = None) -> list[dict]:
    """Run the config once per value of one field; tabulate the results."""
    base_out = out_dir or _field(base_cfg, "run.output_dir")
    rows = []
    for value in values:
        cfg = Config.parse(base_cfg.to_text())
        cfg.set(vary_field, value)
        cfg.set("run.output_dir", os.path.join(base_out, f"{vary_field}={value}"))
        result = run(RunConfig.from_config(cfg))
        rows.append({"variant": f"{vary_field}={value}",
                     **{c: getattr(result, c) for c in COMPARE_COLUMNS[1:]},
                     "output_dir": result.output_dir})
    os.makedirs(base_out, exist_ok=True)
    csv_path = os.path.join(base_out, "compare.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(COMPARE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in COMPARE_COLUMNS) + "\n")
    return rows


def format_compare_table(rows: list[dict]) -> str:
    cells = [[("{:.6g}".format(r[c]) if isinstance(r[c], float) else str(r[c]))
              for c in COMPARE_COLUMNS] for r in rows]
    widths = [max(len(c), max((len(row[i]) for row in cells), default=0))
              for i, c in enumerate(COMPARE_COLUMNS)]
    def fmt(row):
        return "  ".join(v.ljust(w) for v, w in zip(row, widths))
    lines = [fmt(COMPARE_COLUMNS), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in cells]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG line charts, no plotting dependency.
# ---------------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _read_metric_csv(path, metric: Optional[str]) -> tuple[str, np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise DataError(f"{path}: no data rows")
    if metric is None:
        metric = "val_loss" if "val_loss" in header else header[1]
    if metric not in header:
        raise DataError(f"{path}: no column {metric!r} (have {header})")
    col = header.index(metric)
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[col]) for r in rows])
    return metric, x, y


def _axis_range(lo: float, hi: float, pad: float, what: str) -> tuple[float, float]:
    """[lo, hi] widened by `pad` of its span on each side, a zero span
    first to the values' own magnitude (at least 1), so that the add is
    not lost above 2**53.  DataError when the span is more than a double
    holds."""
    if hi == lo:
        hi = lo + max(1.0, abs(lo))
    pad *= hi - lo
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise DataError(f"{what} values span more than a double holds")
    return lo, hi


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(t)
        t += step
    return ticks


def emit_plot(csv_paths: list, out_path, metric: Optional[str] = None,
              logy: bool = False, title: Optional[str] = None) -> None:
    """Standalone SVG line chart of one metric column from each CSV."""
    series = []
    metric_name = metric
    for p in csv_paths:
        name, x, y = _read_input(_read_metric_csv, p, metric)
        metric_name = metric_name or name
        label = os.path.basename(os.path.dirname(os.path.abspath(p))) or \
            os.path.basename(p)
        finite = np.isfinite(x) & np.isfinite(y)  # say grad_norm on an overflow step
        series.append((label, x[finite], y[finite]))

    width, height = 800, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    xs = np.concatenate([s[1] for s in series])
    if xs.size == 0:
        raise DataError(f"no finite {metric_name} values to plot")
    if logy:  # chart log10 of the positive values on the linear path
        series = [(label, x[y > 0], np.array([math.log10(v) for v in y[y > 0]]))
                  for label, x, y in series]
    ys = np.concatenate([s[2] for s in series])
    if ys.size == 0:
        raise DataError("log scale requires positive values")
    x_lo, x_hi = _axis_range(float(xs.min()), float(xs.max()), 0.0, "x")
    y_lo, y_hi = _axis_range(float(ys.min()), float(ys.max()), 0.0 if logy else 0.05,
                             metric_name)

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width/2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{escape(title)}</text>')

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" '
                     f'y2="{mt + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{t:g}</text>')
    # log ticks are the whole exponents, labelled 10**t
    yticks = (range(math.ceil(y_lo), math.floor(y_hi) + 1) if logy
              else _nice_ticks(y_lo, y_hi))
    for t in yticks:
        py = sy(t)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{10.0**t if logy else t:g}</text>')

    parts.append(f'<text x="{ml + pw/2:.1f}" y="{height - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">epoch / iteration</text>')
    parts.append(f'<text x="18" y="{mt + ph/2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {mt + ph/2:.1f})">{escape(metric_name)}'
                 f'{" (log)" if logy else ""}</text>')

    for i, (label, x, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                     f'points="{" ".join(pts)}"/>')
        ly = mt + 16 + 18 * i
        lx = ml + pw + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(label)}</text>')

    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _cmd_train(args) -> int:
    config = RunConfig.from_config(Config.load(args.config))
    result = run(config)
    print(f"run {result.run_id} finished: "
          f"final_val_loss={result.final_val_loss:.6g} "
          f"final_val_acc={result.final_val_acc:.4f}")
    print(f"artifacts in {result.output_dir}")
    return 0


def _cmd_compare(args) -> int:
    field_name, _, raw_values = args.vary.partition("=")
    if not raw_values:
        raise ConfigError("--vary expects field=value1,value2,...")
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    rows = compare(Config.load(args.config), field_name, values,
                   out_dir=args.output_dir)
    print(format_compare_table(rows))
    return 0


def _cmd_histogram(args) -> int:
    path = args.source
    if path.endswith(".csv"):
        h = _read_input(diag.read_csv, path)
        print(f"{path}: total={h.total} zero={h.zero_count} "
              f"nonfinite={h.nonfinite_count}")
        for e in sorted(h.bins):
            print(f"  2^{e:+d}: {h.bins[e]}")
        return 0
    model, params = _read_input(eng.load_checkpoint, path)
    if not params:
        raise DataError(f"{path}: checkpoint holds no parameters")
    out_dir = args.output_dir or os.path.dirname(os.path.abspath(path))
    merged = diag.merged(p.shadow for p in params.values())
    diag.write_csv(os.path.join(out_dir, "hist_checkpoint_weights.csv"), merged)
    print(f"parameters: {merged.total} values, fraction_zero="
          f"{merged.fraction_zero():.4f}, max_abs={merged.max_abs:.6g}")
    for e in (-27, -24):  # 2^-24 is the smallest f16 subnormal
        print(f"fraction below 2^{e}: {merged.fraction_below(e):.4f}")
    return 0


def _cmd_plot(args) -> int:
    emit_plot(args.csvs, args.output, metric=args.metric, logy=args.logy,
              title=args.title)
    print(f"wrote {args.output}")
    return 0


def _cmd_halfdump(args) -> int:
    try:
        value = float(args.value)
    except ValueError:
        raise ConfigError(f"halfdump expects a number, got {args.value!r}")
    with np.errstate(over="ignore"):  # a double beyond f32 range is inf
        h = int(b16.from_f32_array(np.float32(value)))
    print(b16.format_pattern(h))
    return 0


def _cmd_gendata(args) -> int:
    seed = FIELDS["run.seed"]
    if not seed.rule(args.seed):
        raise ConfigError(f"--seed must be {seed.says}, got {args.seed}")
    generate_surrogate_mnist(args.dir, seed=args.seed)
    print(f"wrote surrogate IDX dataset to {args.dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mptrain",
                description="mixed-precision training engine with software "
                            "binary16 emulation")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run one training config")
    t.add_argument("config")
    t.set_defaults(fn=_cmd_train)

    c = sub.add_parser("compare", help="run a config several times varying one field")
    c.add_argument("config")
    c.add_argument("--vary", required=True, metavar="FIELD=V1,V2,...")
    c.add_argument("--output-dir", default=None)
    c.set_defaults(fn=_cmd_compare)

    h = sub.add_parser("histogram", help="exponent histogram of a checkpoint or CSV")
    h.add_argument("source")
    h.add_argument("--output-dir", default=None)
    h.set_defaults(fn=_cmd_histogram)

    pl = sub.add_parser("plot", help="render metric CSVs as an SVG line chart")
    pl.add_argument("csvs", nargs="+")
    pl.add_argument("-o", "--output", required=True)
    pl.add_argument("--metric", default=None)
    pl.add_argument("--logy", action="store_true")
    pl.add_argument("--title", default=None)
    pl.set_defaults(fn=_cmd_plot)

    hd = sub.add_parser("halfdump", help="show the binary16 encoding of a value")
    hd.add_argument("value")
    hd.set_defaults(fn=_cmd_halfdump)

    g = sub.add_parser("gendata", help="write a deterministic IDX dataset")
    g.add_argument("dir")
    g.add_argument("--seed", type=int, default=20180423)
    g.set_defaults(fn=_cmd_gendata)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, nn.ShapeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, nn.LabelError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except eng.NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # an output path that cannot be written
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"config error: out of memory ({e})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
